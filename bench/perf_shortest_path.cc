// Shortest paths (Table 9 #3): serial Dijkstra vs bucket-based delta-stepping
// on the same weighted RMAT graphs and weighted road lattices, plus the
// Bellman-Ford, bidirectional-BFS and point-to-point baselines. Scale-12
// cases feed ci/perf_smoke.sh.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "algorithms/shortest_path.h"

#include "perf_common.h"
#include "perf_obs.h"

namespace ubigraph {
namespace {

void BM_Dijkstra(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::WeightedRmatGraph(scale);
  const VertexId root = bench::BfsRoot(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::Dijkstra(g, root).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  // Dijkstra with a lazy heap relaxes each settled vertex's out-edges once.
  bench::SetWorkItems(state, static_cast<double>(g.num_edges()));
  state.SetLabel("kernel=sssp mode=dijkstra graph=rmatw" +
                 std::to_string(scale));
  state.counters["threads"] = 1;
}
BENCHMARK(BM_Dijkstra)->Args({12, 1})->Args({16, 1})->Args({20, 1})
    ->Unit(benchmark::kMillisecond);

void BM_DeltaStepping(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  const CsrGraph& g = bench::WeightedRmatGraph(scale);
  const VertexId root = bench::BfsRoot(g);
  algo::SsspOptions opts;
  opts.num_threads = threads;
  bench::WorkProbe work({"sssp.delta.relaxations"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::DeltaSteppingSssp(g, root, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  work.Flush(state);
  state.SetLabel("kernel=sssp mode=delta_stepping graph=rmatw" +
                 std::to_string(scale));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_DeltaStepping)
    ->Args({12, 1})
    ->Args({12, 4})
    ->Args({20, 1})
    ->Args({20, 2})
    ->Args({20, 4})
    ->Args({20, 8})
    ->Unit(benchmark::kMillisecond);

/// The lattice's centre vertex: traverse_road's roots lie near it, so a
/// traversal from it takes about as many rounds as theirs.
VertexId LatticeCentre(uint32_t scale) {
  const VertexId rows = VertexId{1} << (scale / 2);
  const VertexId cols = VertexId{1} << (scale - scale / 2);
  return rows / 2 * cols + cols / 2;
}

// Serial Dijkstra on the weighted road lattice: the baseline delta-stepping
// must beat in traverse_road's regime, where every bucket is small.
void BM_DijkstraRoad(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::WeightedRoadGraph(scale);
  const VertexId root = LatticeCentre(scale);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::Dijkstra(g, root).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  bench::SetWorkItems(state, static_cast<double>(g.num_edges()));
  state.SetLabel("kernel=sssp mode=dijkstra graph=roadw" +
                 std::to_string(scale));
  state.counters["threads"] = 1;
}
BENCHMARK(BM_DijkstraRoad)->Args({12, 1})->Args({18, 1})
    ->Unit(benchmark::kMillisecond);

void BM_DeltaSteppingRoad(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  const CsrGraph& g = bench::WeightedRoadGraph(scale);
  const VertexId root = LatticeCentre(scale);
  algo::SsspOptions opts;
  opts.num_threads = threads;
  bench::WorkProbe work({"sssp.delta.relaxations"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::DeltaSteppingSssp(g, root, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  work.Flush(state);
  state.SetLabel("kernel=sssp mode=delta_stepping graph=roadw" +
                 std::to_string(scale));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_DeltaSteppingRoad)
    ->Args({12, 1})
    ->Args({12, 4})
    ->Args({18, 1})
    ->Args({18, 4})
    ->Unit(benchmark::kMillisecond);

void BM_BellmanFord(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::WeightedRmatGraph(scale);
  const VertexId root = bench::BfsRoot(g);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::BellmanFord(g, root));
  }
  state.SetLabel("kernel=sssp mode=bellman_ford graph=rmatw" +
                 std::to_string(scale));
  state.counters["threads"] = 1;
}
BENCHMARK(BM_BellmanFord)->Args({8, 1})->Args({10, 1});

void BM_BidirectionalBfs(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::RmatGraph(scale, /*in_edges=*/true);
  Rng rng(1);
  for (auto _ : state) {
    VertexId s = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    VertexId t = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    benchmark::DoNotOptimize(algo::BidirectionalBfsDistance(g, s, t));
  }
  state.SetLabel("kernel=sssp mode=bidirectional_bfs graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = 1;
}
BENCHMARK(BM_BidirectionalBfs)->Args({10, 1})->Args({13, 1})->Args({16, 1});

void BM_PointToPointDijkstra(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::WeightedRmatGraph(scale);
  Rng rng(2);
  for (auto _ : state) {
    VertexId s = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    VertexId t = static_cast<VertexId>(rng.NextBounded(g.num_vertices()));
    benchmark::DoNotOptimize(algo::DijkstraPointToPoint(g, s, t));
  }
  state.SetLabel("kernel=sssp mode=p2p_dijkstra graph=rmatw" +
                 std::to_string(scale));
  state.counters["threads"] = 1;
}
BENCHMARK(BM_PointToPointDijkstra)->Args({10, 1})->Args({13, 1});

}  // namespace
}  // namespace ubigraph

UBIGRAPH_BENCHMARK_MAIN_WITH_OBS();
