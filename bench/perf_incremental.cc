// Incremental maintenance vs. from-scratch recompute under localized update
// streams (Table 8's dynamism workloads). Each pair of benchmarks drives the
// SAME seeded mixed stream — batch-apply on a warm engine vs. a full
// recompute over the live edge set after every batch — and reports the work
// actually performed per batch (edges re-relaxed / arcs scanned) through the
// `work_items` BENCH.json field, so the cost asymmetry is visible next to
// the wall-clock numbers. Two regimes: 16-delta batches in a 64-vertex
// window from a fresh graph, replayed as one fixed cycle (`*Batch*` rows),
// and the end-to-end
// benchmark's update_stream regime, 64-delta batches in a V/16 window after
// 1,500 warm-up batches have saturated it (`*Saturated*` rows).
#include <benchmark/benchmark.h>

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/connected_components.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "obs/metrics.h"
#include "stream/incremental_components.h"
#include "stream/incremental_kcore.h"
#include "stream/incremental_pagerank.h"
#include "update_stream_util.h"

#include "perf_common.h"
#include "perf_obs.h"

namespace ubigraph {
namespace {

using test::StreamKind;
using test::UpdateStreamGen;

// Mixed batches confined to a 64-vertex window: the workload where
// maintenance pays (only a corner of the graph ever changes).
constexpr size_t kBatchSize = 16;
constexpr VertexId kWindow = 64;
constexpr double kTolerance = 1e-9;

// The `*Batch*` rows replay one cycle of this many batches from the start of
// their stream, rebuilding the engine (untimed) at each cycle's start. A
// batch's cost changes as the window fills, so a fixed cycle keeps every
// run and repetition timing the same stretch of the stream, whatever
// iteration count google-benchmark picks.
constexpr size_t kCycleBatches = 16;

EdgeList StreamBase(uint32_t scale) {
  Rng rng(scale * 1000003ULL + 41);
  return gen::Rmat(scale, static_cast<uint64_t>(8) << scale, &rng).ValueOrDie();
}

/// The first kCycleBatches batches of the fresh-graph stream for (scale,
/// seed), with the edge set they start from and the live edge set after
/// each (the recompute rows' input). Built once per process, so every run
/// of the incremental row and its recompute twin sees the same batches.
struct BatchCycle {
  EdgeList initial;
  std::vector<std::vector<GraphDelta>> batches;
  std::vector<EdgeList> live;
};

const BatchCycle& Cycle(uint32_t scale, uint64_t seed) {
  static std::map<std::pair<uint32_t, uint64_t>, BatchCycle> cache;
  auto it = cache.find({scale, seed});
  if (it == cache.end()) {
    UpdateStreamGen gen(StreamBase(scale), seed, {.window = kWindow});
    BatchCycle cycle;
    cycle.initial = gen.InitialEdges();
    for (size_t b = 0; b < kCycleBatches; ++b) {
      cycle.batches.push_back(gen.NextBatch(StreamKind::kMixed, kBatchSize));
      cycle.live.push_back(gen.LiveEdges());
    }
    it = cache.emplace(std::make_pair(scale, seed), std::move(cycle)).first;
  }
  return it->second;
}

void FinishBatchBench(benchmark::State& state, const char* mode,
                      uint32_t scale, uint64_t work) {
  state.SetLabel(std::string("kernel=incremental mode=") + mode + " graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["work_items"] =
      state.iterations() > 0
          ? static_cast<double>(work) / static_cast<double>(state.iterations())
          : 0.0;
}

void BM_IncrementalPageRankBatch(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const BatchCycle& cycle = Cycle(scale, 77);
  stream::IncrementalPageRankOptions opts;
  opts.tolerance = kTolerance;
  opts.num_threads = static_cast<uint32_t>(state.range(1));
  std::optional<stream::IncrementalPageRank> engine;
  uint64_t work = 0;
  size_t next = 0;
  for (auto _ : state) {
    if (next % kCycleBatches == 0) {
      state.PauseTiming();
      engine.emplace(
          stream::IncrementalPageRank::Create(cycle.initial, opts).ValueOrDie());
      state.ResumeTiming();
    }
    work += engine->ApplyBatch(cycle.batches[next++ % kCycleBatches])
                .ValueOrDie()
                .edges_rerelaxed;
  }
  FinishBatchBench(state, "pagerank_batch", scale, work);
}
BENCHMARK(BM_IncrementalPageRankBatch)->Args({10, 1})->Args({12, 1});

void BM_PageRankBatchRecompute(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const BatchCycle& cycle = Cycle(scale, 77);
  algo::PageRankOptions opts;
  opts.tolerance = kTolerance;
  opts.max_iterations = 200;
  opts.mode = algo::PageRankMode::kPull;
  opts.num_threads = static_cast<uint32_t>(state.range(1));
  uint64_t work = 0;
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    EdgeList live = cycle.live[next++ % kCycleBatches];
    state.ResumeTiming();
    CsrOptions copts;
    copts.build_in_edges = true;
    auto g = CsrGraph::FromEdges(std::move(live), copts).ValueOrDie();
    auto pr = algo::PageRank(g, opts).ValueOrDie();
    work += static_cast<uint64_t>(pr.iterations) * g.num_edges();
    benchmark::DoNotOptimize(pr.scores.data());
  }
  FinishBatchBench(state, "pagerank_recompute", scale, work);
}
BENCHMARK(BM_PageRankBatchRecompute)->Args({10, 1})->Args({12, 1});

void BM_IncrementalComponentsBatch(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const BatchCycle& cycle = Cycle(scale, 78);
  std::optional<stream::IncrementalComponents> engine;
  // The engine reports arcs scanned through the obs registry, not the
  // BatchResult (merges/rebuilds only), so read the counter delta.
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  registry.set_enabled(true);
  size_t next = 0;
  for (auto _ : state) {
    if (next % kCycleBatches == 0) {
      state.PauseTiming();
      registry.set_enabled(false);  // keep the rebuild out of work_items
      engine.emplace(
          stream::IncrementalComponents::Create(cycle.initial).ValueOrDie());
      registry.set_enabled(true);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(
        engine->ApplyBatch(cycle.batches[next++ % kCycleBatches]).ValueOrDie());
  }
  const uint64_t work = static_cast<uint64_t>(
      registry.GetCounter("stream.incremental.components.edges_rerelaxed")
          ->Value());
  registry.set_enabled(false);
  FinishBatchBench(state, "components_batch", scale, work);
}
BENCHMARK(BM_IncrementalComponentsBatch)->Args({10, 1})->Args({12, 1});

void BM_ComponentsBatchRecompute(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const BatchCycle& cycle = Cycle(scale, 78);
  uint64_t work = 0;
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    EdgeList live = cycle.live[next++ % kCycleBatches];
    state.ResumeTiming();
    auto g = CsrGraph::FromEdges(std::move(live)).ValueOrDie();
    benchmark::DoNotOptimize(algo::WeaklyConnectedComponents(g));
    work += g.num_edges();
  }
  FinishBatchBench(state, "components_recompute", scale, work);
}
BENCHMARK(BM_ComponentsBatchRecompute)->Args({10, 1})->Args({12, 1});

void BM_IncrementalKCoreBatch(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const BatchCycle& cycle = Cycle(scale, 79);
  std::optional<stream::IncrementalKCore> engine;
  uint64_t work = 0;
  size_t next = 0;
  for (auto _ : state) {
    if (next % kCycleBatches == 0) {
      state.PauseTiming();
      engine.emplace(cycle.initial.num_vertices());
      for (const Edge& e : cycle.initial.edges()) {
        engine->InsertEdge(e.src, e.dst).Abort();
      }
      state.ResumeTiming();
    }
    work += engine->ApplyBatch(cycle.batches[next++ % kCycleBatches])
                .ValueOrDie()
                .edges_rerelaxed;
  }
  FinishBatchBench(state, "kcore_batch", scale, work);
}
BENCHMARK(BM_IncrementalKCoreBatch)->Args({10, 1})->Args({12, 1});

void BM_KCoreBatchRecompute(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const BatchCycle& cycle = Cycle(scale, 79);
  uint64_t work = 0;
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    EdgeList live = cycle.live[next++ % kCycleBatches];
    state.ResumeTiming();
    CsrOptions copts;
    copts.directed = false;
    auto g = CsrGraph::FromEdges(std::move(live), copts).ValueOrDie();
    benchmark::DoNotOptimize(algo::CoreDecomposition(g));
    work += g.num_edges();  // undirected CSR already counts both arcs
  }
  FinishBatchBench(state, "kcore_recompute", scale, work);
}
BENCHMARK(BM_KCoreBatchRecompute)->Args({10, 1})->Args({12, 1});

// --- the update_stream regime ---

constexpr size_t kSaturatedBatchSize = 64;
constexpr size_t kWarmupBatches = 1500;

/// The stream's generator after kWarmupBatches untimed mixed batches in a
/// V/16 window: by then deletions have drained most arcs outside the window
/// and inserts have filled it, so the live graph is a dense DAG (arcs run
/// from the smaller id to the larger) over the window plus a sparse tail.
const UpdateStreamGen& SaturatedStream(uint32_t scale) {
  static std::map<uint32_t, UpdateStreamGen> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    const EdgeList base = StreamBase(scale);
    UpdateStreamGen gen(base, 80, {.window = base.num_vertices() / 16});
    for (size_t b = 0; b < kWarmupBatches; ++b) {
      gen.NextBatch(StreamKind::kMixed, kSaturatedBatchSize);
    }
    it = cache.emplace(scale, std::move(gen)).first;
  }
  return it->second;
}

/// The next `count` batches after the warm-up. Every run draws them from a
/// copy of the same warm generator, so every repetition times the same
/// batches in the same order.
std::vector<std::vector<GraphDelta>> SaturatedBatches(uint32_t scale,
                                                      int64_t count) {
  UpdateStreamGen gen = SaturatedStream(scale);
  std::vector<std::vector<GraphDelta>> batches(static_cast<size_t>(count));
  for (auto& batch : batches) {
    batch = gen.NextBatch(StreamKind::kMixed, kSaturatedBatchSize);
  }
  return batches;
}

void BM_IncrementalPageRankSaturated(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  stream::IncrementalPageRankOptions opts;
  opts.tolerance = kTolerance;
  opts.num_threads = static_cast<uint32_t>(state.range(1));
  auto engine = stream::IncrementalPageRank::Create(
                    SaturatedStream(scale).LiveEdges(), opts)
                    .ValueOrDie();
  const auto batches = SaturatedBatches(scale, state.max_iterations);
  uint64_t work = 0;
  size_t next = 0;
  for (auto _ : state) {
    const auto res = engine.ApplyBatch(batches[next++]).ValueOrDie();
    if (!res.converged) {
      state.SkipWithError("batch did not converge");
      break;
    }
    work += res.edges_rerelaxed;
  }
  FinishBatchBench(state, "pagerank_saturated", scale, work);
}
BENCHMARK(BM_IncrementalPageRankSaturated)->Args({12, 1});

void BM_IncrementalComponentsSaturated(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  auto engine =
      stream::IncrementalComponents::Create(SaturatedStream(scale).LiveEdges())
          .ValueOrDie();
  const auto batches = SaturatedBatches(scale, state.max_iterations);
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  registry.set_enabled(true);
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.ApplyBatch(batches[next++]).ValueOrDie());
  }
  const uint64_t work = static_cast<uint64_t>(
      registry.GetCounter("stream.incremental.components.edges_rerelaxed")
          ->Value());
  registry.set_enabled(false);
  FinishBatchBench(state, "components_saturated", scale, work);
}
BENCHMARK(BM_IncrementalComponentsSaturated)->Args({12, 1});

void BM_IncrementalKCoreSaturated(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const EdgeList init = SaturatedStream(scale).LiveEdges();
  stream::IncrementalKCore engine(init.num_vertices());
  for (const Edge& e : init.edges()) engine.InsertEdge(e.src, e.dst).Abort();
  const auto batches = SaturatedBatches(scale, state.max_iterations);
  uint64_t work = 0;
  size_t next = 0;
  for (auto _ : state) {
    work += engine.ApplyBatch(batches[next++]).ValueOrDie().edges_rerelaxed;
  }
  FinishBatchBench(state, "kcore_saturated", scale, work);
}
BENCHMARK(BM_IncrementalKCoreSaturated)->Args({12, 1});

void BM_KCoreSaturatedRecompute(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  // The same batches as BM_IncrementalKCoreSaturated: a copy of the warm
  // generator redraws them, and its live set is the recompute's input.
  UpdateStreamGen gen = SaturatedStream(scale);
  uint64_t work = 0;
  for (auto _ : state) {
    state.PauseTiming();
    gen.NextBatch(StreamKind::kMixed, kSaturatedBatchSize);
    EdgeList live = gen.LiveEdges();
    state.ResumeTiming();
    CsrOptions copts;
    copts.directed = false;
    auto g = CsrGraph::FromEdges(std::move(live), copts).ValueOrDie();
    benchmark::DoNotOptimize(algo::CoreDecomposition(g));
    work += g.num_edges();  // undirected CSR already counts both arcs
  }
  FinishBatchBench(state, "kcore_saturated_recompute", scale, work);
}
BENCHMARK(BM_KCoreSaturatedRecompute)->Args({12, 1});

}  // namespace
}  // namespace ubigraph

UBIGRAPH_BENCHMARK_MAIN_WITH_OBS();
