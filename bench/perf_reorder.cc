// Memory-locality layer: kernel time on original vs reordered graphs and the
// compressed-CSR backend (decode overhead plus bytes-per-edge vs the plain
// 4-byte adjacency array). The reordering
// itself runs once per (scale, kind) in setup — the benchmarks time the
// kernels, not the passes — except BM_ReorderPass, which times the passes.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "algorithms/pagerank.h"
#include "algorithms/traversal.h"
#include "graph/compressed_csr.h"
#include "graph/ordering.h"
#include "perf_common.h"
#include "perf_obs.h"

namespace ubigraph {
namespace {

/// Cached reordered copy of the standard bench RMAT graph. kOriginal returns
/// the unpermuted graph so every benchmark reads through the same path.
const CsrGraph& OrderedRmat(uint32_t scale, OrderingKind kind) {
  if (kind == OrderingKind::kOriginal) {
    return bench::RmatGraph(scale, /*in_edges=*/true);
  }
  static std::map<std::pair<uint32_t, OrderingKind>, CsrGraph> cache;
  auto key = std::make_pair(scale, kind);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const CsrGraph& g = bench::RmatGraph(scale, /*in_edges=*/true);
    it = cache
             .emplace(key,
                      std::move(g.Permute(MakeOrdering(g, kind)).ValueOrDie()
                                    .graph))
             .first;
  }
  return it->second;
}

/// Cached compressed copy of the standard bench RMAT graph.
const CompressedCsrGraph& CompressedRmat(uint32_t scale) {
  static std::map<uint32_t, CompressedCsrGraph> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    it = cache
             .emplace(scale, CompressedCsrGraph::FromCsr(
                                 bench::RmatGraph(scale, /*in_edges=*/true))
                                 .ValueOrDie())
             .first;
  }
  return it->second;
}

// Fixed-work (20 iterations) pull PageRank per vertex ordering; Args =
// {scale, num_threads}. The acceptance comparison is mode=pull_hub vs
// mode=pull_original at rmat20.
void PageRankOrderedBench(benchmark::State& state, OrderingKind kind) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = OrderedRmat(scale, kind);
  algo::PageRankOptions opts;
  opts.max_iterations = 20;
  opts.tolerance = 0;
  opts.mode = algo::PageRankMode::kPull;
  opts.num_threads = static_cast<uint32_t>(state.range(1));
  bench::WorkProbe work({"pagerank.edges_relaxed"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::PageRank(g, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 20);
  work.Flush(state);
  state.SetLabel(std::string("kernel=pagerank mode=pull_") +
                 OrderingKindName(kind) + " graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
void BM_PageRankPullOriginal(benchmark::State& state) {
  PageRankOrderedBench(state, OrderingKind::kOriginal);
}
void BM_PageRankPullHub(benchmark::State& state) {
  PageRankOrderedBench(state, OrderingKind::kDegreeDescending);
}
void BM_PageRankPullRcm(benchmark::State& state) {
  PageRankOrderedBench(state, OrderingKind::kRcm);
}
void BM_PageRankPullHubCluster(benchmark::State& state) {
  PageRankOrderedBench(state, OrderingKind::kHubCluster);
}
#define ORDERED_ARGS Args({12, 1})->Args({20, 1})->Args({20, 8})
BENCHMARK(BM_PageRankPullOriginal)->ORDERED_ARGS;
BENCHMARK(BM_PageRankPullHub)->ORDERED_ARGS;
BENCHMARK(BM_PageRankPullRcm)->ORDERED_ARGS;
BENCHMARK(BM_PageRankPullHubCluster)->ORDERED_ARGS;
#undef ORDERED_ARGS

// Hybrid BFS on the hub-sorted graph vs original (the frontier bitmap and
// distance array get the same locality win as PageRank's rank array).
void BfsOrderedBench(benchmark::State& state, OrderingKind kind) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = OrderedRmat(scale, kind);
  const VertexId root = bench::BfsRoot(g);
  algo::HybridBfsOptions opts;
  opts.num_threads = static_cast<uint32_t>(state.range(1));
  bench::WorkProbe work({"bfs.hybrid.edges_scanned"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::HybridBfs(g, root, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  work.Flush(state);
  state.SetLabel(std::string("kernel=bfs mode=hybrid_") +
                 OrderingKindName(kind) + " graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
void BM_BfsHybridOriginal(benchmark::State& state) {
  BfsOrderedBench(state, OrderingKind::kOriginal);
}
void BM_BfsHybridHub(benchmark::State& state) {
  BfsOrderedBench(state, OrderingKind::kDegreeDescending);
}
BENCHMARK(BM_BfsHybridOriginal)->Args({12, 1})->Args({20, 1});
BENCHMARK(BM_BfsHybridHub)->Args({12, 1})->Args({20, 1});

// Pull PageRank reading adjacency through the varint block decoder instead of
// the plain target array: the decode overhead the byte savings pay for.
// Reports bytes_per_edge (encoded out-payload / edge; plain CSR is 4.0).
void BM_PageRankPullCompressed(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CompressedCsrGraph& g = CompressedRmat(scale);
  algo::PageRankOptions opts;
  opts.max_iterations = 20;
  opts.tolerance = 0;
  opts.mode = algo::PageRankMode::kPull;
  opts.num_threads = static_cast<uint32_t>(state.range(1));
  bench::WorkProbe work({"pagerank.edges_relaxed"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::PageRank(g, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 20);
  work.Flush(state);
  state.counters["bytes_per_edge"] = g.AdjacencyBytesPerEdge();
  state.SetLabel("kernel=pagerank mode=pull_compressed graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_PageRankPullCompressed)->Args({12, 1})->Args({20, 1});

// Encode throughput plus the compression ratio itself (the ≤60%-of-plain
// acceptance number is this benchmark's bytes_per_edge / 4).
void BM_CompressedEncode(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::RmatGraph(scale, /*in_edges=*/true);
  double bytes_per_edge = 0.0;
  for (auto _ : state) {
    CompressedCsrGraph c = CompressedCsrGraph::FromCsr(g).ValueOrDie();
    bytes_per_edge = c.AdjacencyBytesPerEdge();
    benchmark::DoNotOptimize(c);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.counters["bytes_per_edge"] = bytes_per_edge;
  state.SetLabel("kernel=compress mode=encode graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = 1.0;
}
BENCHMARK(BM_CompressedEncode)->Arg(12)->Arg(20);

// Raw varint block-decode throughput: stream every adjacency row through the
// 16-id block decoder with no kernel arithmetic attached. This is the record
// that pins the branch-reduced Refill fast path (the 16-byte wide probe for
// all-single-byte gap blocks) — kernel-level benches dilute decode time with
// rank updates, so a decoder regression hides in them.
void BM_CompressedDecode(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CompressedCsrGraph& g = CompressedRmat(scale);
  uint64_t sink = 0;
  for (auto _ : state) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (VertexId u : g.OutNeighbors(v)) sink += u;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  // Every stored edge is decoded exactly once per sweep.
  bench::SetWorkItems(state, static_cast<double>(g.num_edges()));
  state.counters["bytes_per_edge"] = g.AdjacencyBytesPerEdge();
  state.SetLabel("kernel=compress mode=decode graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = 1.0;
}
BENCHMARK(BM_CompressedDecode)->Arg(12)->Arg(20);

// The reordering passes themselves (permutation only, no Permute).
void ReorderPassBench(benchmark::State& state, OrderingKind kind) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::RmatGraph(scale, /*in_edges=*/true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeOrdering(g, kind));
  }
  state.SetItemsProcessed(state.iterations() * g.num_vertices());
  state.SetLabel(std::string("kernel=reorder mode=") + OrderingKindName(kind) +
                 " graph=rmat" + std::to_string(scale));
  state.counters["threads"] = 1.0;
}
void BM_ReorderHub(benchmark::State& state) {
  ReorderPassBench(state, OrderingKind::kDegreeDescending);
}
void BM_ReorderRcm(benchmark::State& state) {
  ReorderPassBench(state, OrderingKind::kRcm);
}
void BM_ReorderHubCluster(benchmark::State& state) {
  ReorderPassBench(state, OrderingKind::kHubCluster);
}
BENCHMARK(BM_ReorderHub)->Arg(12)->Arg(20);
BENCHMARK(BM_ReorderRcm)->Arg(12)->Arg(20);
BENCHMARK(BM_ReorderHubCluster)->Arg(12)->Arg(20);

// Permute itself (relabel + in-index rebuild); Args = {scale, num_threads}.
void BM_Permute(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::RmatGraph(scale, /*in_edges=*/true);
  const std::vector<VertexId> perm =
      MakeOrdering(g, OrderingKind::kDegreeDescending);
  PermuteOptions opts;
  opts.num_threads = static_cast<uint32_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.Permute(perm, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  // Permute relabels every edge (out and in index) exactly once.
  bench::SetWorkItems(state, static_cast<double>(g.num_edges()));
  state.SetLabel("kernel=permute mode=hub graph=rmat" + std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_Permute)->Args({12, 1})->Args({20, 1})->Args({20, 8});

}  // namespace
}  // namespace ubigraph

UBIGRAPH_BENCHMARK_MAIN_WITH_OBS();
