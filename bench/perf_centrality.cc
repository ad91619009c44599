// Centrality and coreness kernels (Table 9 "Ranking & Centrality Scores"):
// exact and sampled Brandes betweenness, harmonic closeness, and k-core
// decomposition, each swept over num_threads. Scale-12 cases
// feed ci/perf_smoke.sh.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "algorithms/centrality.h"
#include "algorithms/kcore.h"
#include "common/random.h"

#include "perf_common.h"
#include "perf_obs.h"

namespace ubigraph {
namespace {

void BM_Betweenness(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  const CsrGraph& g = bench::RmatGraph(scale);
  algo::CentralityOptions opts;
  opts.num_threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::BetweennessCentrality(g, opts));
  }
  // Brandes scans every edge once per source in each direction.
  state.SetItemsProcessed(state.iterations() * g.num_edges() *
                          g.num_vertices());
  state.SetLabel("kernel=centrality mode=brandes graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_Betweenness)
    ->Args({10, 1})
    ->Args({10, 2})
    ->Args({10, 4})
    ->Args({10, 8})
    ->Unit(benchmark::kMillisecond);

void BM_BetweennessSampled(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  constexpr uint32_t kPivots = 64;
  const CsrGraph& g = bench::RmatGraph(scale);
  algo::CentralityOptions opts;
  opts.num_threads = threads;
  bench::WorkProbe work({"centrality.brandes.edges_scanned"});
  for (auto _ : state) {
    Rng rng(7);  // fixed seed: every iteration runs the same pivot set
    benchmark::DoNotOptimize(
        algo::ApproxBetweennessCentrality(g, kPivots, &rng, opts));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() * kPivots);
  work.Flush(state);
  state.SetLabel("kernel=centrality mode=brandes_sampled graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_BetweennessSampled)
    ->Args({12, 1})
    ->Args({12, 4})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({16, 4})
    ->Args({16, 8})
    ->Unit(benchmark::kMillisecond);

void BM_HarmonicCloseness(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  const CsrGraph& g = bench::RmatGraph(scale);
  algo::CentralityOptions opts;
  opts.num_threads = threads;
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::HarmonicCloseness(g, opts));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges() *
                          g.num_vertices());
  state.SetLabel("kernel=centrality mode=harmonic graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_HarmonicCloseness)
    ->Args({10, 1})
    ->Args({10, 4})
    ->Unit(benchmark::kMillisecond);

void BM_KCore(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const uint32_t threads = static_cast<uint32_t>(state.range(1));
  const CsrGraph& g = bench::RmatGraph(scale);
  algo::CoreOptions opts;
  opts.num_threads = threads;
  const char* mode = threads > 1 ? "bucketed" : "serial";
  // The serial path only flushes kcore.vertices; the bucketed path adds
  // kcore.decrements. Summing both gives a nonzero work count either way.
  bench::WorkProbe work({"kcore.decrements", "kcore.vertices"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::CoreDecomposition(g, opts));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  work.Flush(state);
  state.SetLabel(std::string("kernel=kcore mode=") + mode + " graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = threads;
}
BENCHMARK(BM_KCore)
    ->Args({12, 1})
    ->Args({12, 4})
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({16, 8})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ubigraph

UBIGRAPH_BENCHMARK_MAIN_WITH_OBS();
