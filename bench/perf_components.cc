// Connected components — the survey's most-run computation (Table 9 #1).
#include <benchmark/benchmark.h>

#include "algorithms/connected_components.h"

#include "perf_common.h"
#include "perf_obs.h"

namespace ubigraph {
namespace {

// The serial union-find: the baseline BM_CCLabelProp must beat in parallel.
void BM_WeaklyConnectedComponents(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::RmatGraph(scale);
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::WeaklyConnectedComponents(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  state.SetLabel("kernel=cc mode=union_find graph=rmat" + std::to_string(scale));
}
BENCHMARK(BM_WeaklyConnectedComponents)->Arg(10)->Arg(13)->Arg(16)->Arg(20);

// The parallel kernel (concurrent union-find, Afforest order); Args =
// {scale, num_threads}. work_items is cc.arcs_linked: the arcs handed to
// Link, which the giant-component skip keeps well below E.
void BM_CCLabelProp(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const CsrGraph& g = bench::RmatGraph(scale, /*in_edges=*/true);
  algo::ComponentsOptions opts;
  opts.num_threads = static_cast<uint32_t>(state.range(1));
  bench::WorkProbe work({"cc.arcs_linked"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::ConnectedComponentsLabelProp(g, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  work.Flush(state);
  state.SetLabel("kernel=cc mode=afforest graph=rmat" + std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(1));
}
BENCHMARK(BM_CCLabelProp)
    ->Args({12, 1})
    ->Args({12, 4})
    ->Args({16, 1})
    ->Args({16, 4})
    ->Args({20, 1})
    ->Args({20, 4});

void BM_StronglyConnectedComponents(benchmark::State& state) {
  const CsrGraph& g = bench::RmatGraph(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::StronglyConnectedComponents(g));
  }
  state.SetItemsProcessed(state.iterations() * g.num_edges());
}
BENCHMARK(BM_StronglyConnectedComponents)->Arg(10)->Arg(13)->Arg(16);

void BM_SingletonCleaning(benchmark::State& state) {
  // The §4.1 "remove singleton vertices" pre-processing step.
  const CsrGraph& g = bench::RmatGraph(static_cast<uint32_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(algo::SingletonVertices(g));
  }
}
BENCHMARK(BM_SingletonCleaning)->Arg(10)->Arg(13);

}  // namespace
}  // namespace ubigraph

UBIGRAPH_BENCHMARK_MAIN_WITH_OBS();
