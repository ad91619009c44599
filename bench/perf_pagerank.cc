// PageRank & centrality (Table 9 "Ranking & Centrality Scores").
#include <benchmark/benchmark.h>

#include "algorithms/centrality.h"
#include "algorithms/pagerank.h"

#include "perf_common.h"
#include "perf_obs.h"

namespace ubigraph {
namespace {

void BM_PageRank(benchmark::State& state) {
  const CsrGraph& g =
      bench::RmatGraph(static_cast<uint32_t>(state.range(0)), /*in_edges=*/true);
  algo::PageRankOptions opts;
  opts.max_iterations = 20;
  opts.tolerance = 0;  // fixed iteration count for stable comparison
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::PageRank(g, opts));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 20);
}
BENCHMARK(BM_PageRank)->Arg(10)->Arg(13)->Arg(16);

// Parallel path at a fixed scale; Arg = num_threads (1 = serial baseline).
void BM_PageRankParallel(benchmark::State& state) {
  const CsrGraph& g = bench::RmatGraph(16, /*in_edges=*/true);
  algo::PageRankOptions opts;
  opts.max_iterations = 20;
  opts.tolerance = 0;
  opts.num_threads = static_cast<uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::PageRank(g, opts));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 20);
}
BENCHMARK(BM_PageRankParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Fixed-work (20 iterations) mode comparison; Args = {scale, num_threads}.
// Pull gathers contiguous in-edges with no write sharing; push scatters with
// per-worker accumulators. Scale 20 is the acceptance comparison, scale 12
// feeds ci/perf_smoke.sh.
void PageRankModeBench(benchmark::State& state, algo::PageRankMode mode,
                       const char* mode_name) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::RmatGraph(scale, /*in_edges=*/true);
  algo::PageRankOptions opts;
  opts.max_iterations = 20;
  opts.tolerance = 0;
  opts.num_threads = static_cast<uint32_t>(state.range(1));
  opts.mode = mode;
  bench::WorkProbe work({"pagerank.edges_relaxed"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::PageRank(g, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 20);
  work.Flush(state);
  state.SetLabel(std::string("kernel=pagerank mode=") + mode_name +
                 " graph=rmat" + std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
void BM_PageRankPull(benchmark::State& state) {
  PageRankModeBench(state, algo::PageRankMode::kPull, "pull");
}
void BM_PageRankPush(benchmark::State& state) {
  PageRankModeBench(state, algo::PageRankMode::kPush, "push");
}
BENCHMARK(BM_PageRankPull)->Args({12, 1})->Args({20, 1})->Args({20, 8});
BENCHMARK(BM_PageRankPush)->Args({12, 1})->Args({20, 1})->Args({20, 8});

// Pull PageRank run to convergence (tolerance 1e-8) rather than for a fixed
// 20 sweeps: work_items counts the in-edges gathered until a sweep certifies.
void BM_PageRankConvergePull(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::RmatGraph(scale, /*in_edges=*/true);
  algo::PageRankOptions opts;
  opts.max_iterations = 200;
  opts.tolerance = 1e-8;
  opts.num_threads = static_cast<uint32_t>(state.range(1));
  opts.mode = algo::PageRankMode::kPull;
  bench::WorkProbe work({"pagerank.edges_relaxed"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::PageRank(g, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  work.Flush(state);
  state.SetLabel("kernel=pagerank_converge mode=pull graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_PageRankConvergePull)->Args({12, 1})->Args({16, 1});

// Fixed-work pull PageRank on the LFR corpus shape: power-law communities
// with 10% inter-community edges — locality sits between RMAT's scrambled
// hubs and a lattice, so it catches cache regressions the other two shapes
// mask. Args = {scale, num_threads}; scale 12 feeds ci/perf_smoke.sh.
void BM_PageRankPullLfr(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::LfrCommunityGraph(scale);
  algo::PageRankOptions opts;
  opts.max_iterations = 20;
  opts.tolerance = 0;
  opts.num_threads = static_cast<uint32_t>(state.range(1));
  opts.mode = algo::PageRankMode::kPull;
  bench::WorkProbe work({"pagerank.edges_relaxed"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::PageRank(g, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * 20);
  work.Flush(state);
  state.SetLabel("kernel=pagerank mode=pull graph=lfr" + std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_PageRankPullLfr)->Args({12, 1})->Args({18, 1})->Args({18, 4});

void BM_ApproxBetweenness(benchmark::State& state) {
  const CsrGraph& g = bench::RmatGraph(static_cast<uint32_t>(state.range(0)));
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::ApproxBetweennessCentrality(g, 16, &rng));
  }
}
BENCHMARK(BM_ApproxBetweenness)->Arg(10)->Arg(12);

void BM_HarmonicCloseness(benchmark::State& state) {
  const CsrGraph& g = bench::RmatGraph(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::HarmonicCloseness(g));
  }
}
BENCHMARK(BM_HarmonicCloseness)->Arg(8)->Arg(10);

void BM_DegreeCentrality(benchmark::State& state) {
  const CsrGraph& g = bench::RmatGraph(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::DegreeCentrality(g));
  }
}
BENCHMARK(BM_DegreeCentrality)->Arg(10)->Arg(16);

}  // namespace
}  // namespace ubigraph

UBIGRAPH_BENCHMARK_MAIN_WITH_OBS();
