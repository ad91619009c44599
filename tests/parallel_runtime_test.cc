// Tests for the shared-memory parallel runtime (common/parallel.h): the
// process-wide fork-join team's exception propagation, fork-width cap,
// nested and concurrent forks, exactly-once coverage of ParallelFor under
// both schedules, and bitwise determinism of the chunked tree ParallelReduce
// across thread counts and repeated runs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/pagerank.h"
#include "algorithms/traversal.h"
#include "common/parallel.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "obs/metrics.h"

namespace ubigraph {
namespace {

TEST(ParallelRuntimeTest, ResolveNumThreads) {
  EXPECT_GE(ResolveNumThreads(0), 1u);  // hardware concurrency, at least 1
  EXPECT_EQ(ResolveNumThreads(1), 1u);
  EXPECT_EQ(ResolveNumThreads(7), 7u);
  EXPECT_EQ(TeamSize(), ResolveNumThreads(0));
}

TEST(ParallelRuntimeTest, RunsAllSubmittedTasks) {
  // Every slot runs exactly once, including when there are more slots than
  // team threads and for the serial widths 0 and 1 (one slot, slot 0).
  for (unsigned workers : {0u, 1u, 2u, 4u, 8u, 100u}) {
    const unsigned slots = std::max(workers, 1u);
    std::vector<std::atomic<int>> hits(slots);
    ForkJoin(workers, [&](unsigned w) {
      hits[w].fetch_add(1, std::memory_order_relaxed);
    });
    for (unsigned w = 0; w < slots; ++w) {
      ASSERT_EQ(hits[w].load(), 1) << "slot " << w << " workers=" << workers;
    }
  }
}

TEST(ParallelRuntimeTest, ExceptionPropagatesOutOfWait) {
  EXPECT_THROW(ForkJoin(2,
                        [](unsigned w) {
                          if (w == 1) throw std::runtime_error("task failed");
                        }),
               std::runtime_error);
  // The error is cleared: the team stays usable afterwards.
  std::atomic<int> count{0};
  EXPECT_NO_THROW(ForkJoin(2, [&count](unsigned) { count.fetch_add(1); }));
  EXPECT_EQ(count.load(), 2);
}

TEST(ParallelRuntimeTest, OnlyFirstOfManyExceptionsIsKept) {
  EXPECT_THROW(ForkJoin(8, [](unsigned) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  EXPECT_NO_THROW(ForkJoin(8, [](unsigned) {}));
}

TEST(ParallelRuntimeTest, ConcurrentThrowsFromMultipleWorkersKeepExactlyOne) {
  // Every thread of the fork throws at the same instant (released by a
  // shared gate), so the first-exception-wins exchange races for real.
  // Exactly one exception must surface on the caller, the error must be
  // cleared, and the team must stay fully usable. The gate waits only for
  // as many threads as the fork can have (its width is capped at the team
  // size), so it cannot deadlock on a host with fewer cores than slots.
  constexpr unsigned kWorkers = 4;
  const unsigned gate = std::min(kWorkers, TeamSize());
  std::atomic<unsigned> arrived{0};
  bool caught = false;
  try {
    ForkJoin(kWorkers, [&arrived, gate](unsigned w) {
      arrived.fetch_add(1, std::memory_order_acq_rel);
      // Spin until every thread of the fork holds a slot, then all throw.
      while (arrived.load(std::memory_order_acquire) < gate) {
      }
      throw std::runtime_error("worker " + std::to_string(w));
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    // Whichever thread won, the message is one of those thrown.
    EXPECT_EQ(std::string(e.what()).rfind("worker ", 0), 0u) << e.what();
  }
  EXPECT_TRUE(caught);
  // Losing exceptions were swallowed, not rethrown by the next fork.
  std::atomic<int> count{0};
  EXPECT_NO_THROW(ForkJoin(16, [&count](unsigned) {
    count.fetch_add(1, std::memory_order_relaxed);
  }));
  EXPECT_EQ(count.load(), 16);
}

TEST(ParallelRuntimeTest, ForkWidthIsCappedAtTheChunkCount) {
  // A fork records one pool task per thread it runs on: min(workers,
  // chunks), never more than the team. A single-chunk loop stays on the
  // caller.
  const obs::Counter* completed =
      obs::MetricsRegistry::Global().GetCounter("pool.tasks_completed");
  for (uint64_t chunks : {1ull, 2ull, 3ull, 64ull}) {
    const int64_t before = completed->Value();
    ParallelFor(
        4, 0, chunks * 16, [](uint64_t) {}, Schedule::kDynamic, /*grain=*/16);
    const uint64_t width = std::min<uint64_t>({4, chunks, TeamSize()});
    EXPECT_EQ(completed->Value() - before, static_cast<int64_t>(width))
        << "chunks=" << chunks;
  }
}

TEST(ParallelRuntimeTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    for (Schedule schedule : {Schedule::kStatic, Schedule::kDynamic}) {
      for (uint64_t n : {0ull, 1ull, 7ull, 1000ull, 1025ull}) {
        std::vector<std::atomic<uint32_t>> hits(n);
        ParallelFor(
            threads, 0, n,
            [&](uint64_t i) { hits[i].fetch_add(1, std::memory_order_relaxed); },
            schedule, /*grain=*/64);
        for (uint64_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1u)
              << "index " << i << " threads=" << threads << " schedule="
              << (schedule == Schedule::kStatic ? "static" : "dynamic");
        }
      }
    }
  }
}

TEST(ParallelRuntimeTest, ParallelForChunksPartitionsTheRange) {
  for (Schedule schedule : {Schedule::kStatic, Schedule::kDynamic}) {
    const uint64_t begin = 5, end = 1003;
    std::vector<std::atomic<uint32_t>> hits(end);
    std::atomic<uint64_t> total{0};
    ParallelForChunks(
        4, begin, end,
        [&](uint64_t b, uint64_t e) {
          ASSERT_LE(begin, b);
          ASSERT_LT(b, e);
          ASSERT_LE(e, end);
          total.fetch_add(e - b, std::memory_order_relaxed);
          for (uint64_t i = b; i < e; ++i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
          }
        },
        schedule, /*grain=*/100);
    EXPECT_EQ(total.load(), end - begin);
    for (uint64_t i = begin; i < end; ++i) ASSERT_EQ(hits[i].load(), 1u);
  }
}

TEST(ParallelRuntimeTest, ParallelForPropagatesTaskExceptions) {
  EXPECT_THROW(ParallelFor(4, 0, 100,
                           [](uint64_t i) {
                             if (i == 37) throw std::runtime_error("index 37");
                           },
                           Schedule::kDynamic, /*grain=*/8),
               std::runtime_error);
}

TEST(ParallelRuntimeTest, ParallelReduceSumsIntegersExactly) {
  const uint64_t n = 12345;
  uint64_t sum = ParallelReduce(
      4, 0, n, uint64_t{0},
      [](uint64_t b, uint64_t e) {
        uint64_t s = 0;
        for (uint64_t i = b; i < e; ++i) s += i;
        return s;
      },
      [](uint64_t a, uint64_t b) { return a + b; },
      /*grain=*/97);
  EXPECT_EQ(sum, n * (n - 1) / 2);
}

TEST(ParallelRuntimeTest, ParallelReduceEmptyRangeReturnsIdentity) {
  double out = ParallelReduce(
      2, 10, 10, 3.5, [](uint64_t, uint64_t) { return 0.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(out, 3.5);
}

TEST(ParallelRuntimeTest, ParallelReduceIsBitwiseDeterministic) {
  // Floating-point sum whose value depends on association order: identical
  // bits are required at every thread count and on every repetition, because
  // chunk boundaries and the combine tree depend only on the grain.
  Rng rng(2026);
  const uint64_t n = 50000;
  std::vector<double> values(n);
  for (double& v : values) v = rng.NextDouble() * 2.0 - 1.0;

  auto run = [&](unsigned threads) {
    return ParallelReduce(
        threads, 0, n, 0.0,
        [&](uint64_t b, uint64_t e) {
          double s = 0.0;
          for (uint64_t i = b; i < e; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; },
        /*grain=*/1024);
  };

  const double reference = run(1);
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    for (int rep = 0; rep < 3; ++rep) {
      double got = run(threads);
      ASSERT_EQ(std::memcmp(&got, &reference, sizeof(double)), 0)
          << "threads=" << threads << " rep=" << rep;
    }
  }
}

TEST(ParallelRuntimeTest, ParallelReduceBoolPartialsAreRaceFree) {
  // Regression: bool partials must not be stored bit-packed (vector<bool>),
  // where adjacent chunks share a word and concurrent writes race under TSan.
  for (int rep = 0; rep < 10; ++rep) {
    bool any = ParallelReduce(
        8, 0, 4096, false,
        [](uint64_t b, uint64_t) { return b == 2048; },
        [](bool a, bool b) { return a || b; },
        /*grain=*/1);
    ASSERT_TRUE(any);
  }
}

TEST(ParallelRuntimeTest, ParallelReduceCombinesChunksInOrder) {
  // Concatenating per-chunk index lists must reproduce 0..n-1 in order: the
  // tree combine preserves chunk order even though chunks are claimed
  // dynamically by racing threads.
  const uint64_t n = 10000;
  auto out = ParallelReduce(
      8, 0, n, std::vector<uint64_t>{},
      [](uint64_t b, uint64_t e) {
        std::vector<uint64_t> chunk;
        for (uint64_t i = b; i < e; ++i) chunk.push_back(i);
        return chunk;
      },
      [](std::vector<uint64_t> a, std::vector<uint64_t> b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
      },
      /*grain=*/64);
  ASSERT_EQ(out.size(), n);
  for (uint64_t i = 0; i < n; ++i) ASSERT_EQ(out[i], i);
}

// --- Team semantics with real kernels ---------------------------------------

CsrGraph KernelGraph() {
  Rng rng(11);
  EdgeList el = gen::Rmat(10, uint64_t{8} << 10, &rng).ValueOrDie();
  CsrOptions opts;
  opts.build_in_edges = true;
  return CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
}

std::vector<double> PushPageRank(const CsrGraph& g) {
  algo::PageRankOptions opts;
  opts.mode = algo::PageRankMode::kPush;
  opts.num_threads = 4;
  opts.max_iterations = 20;
  opts.tolerance = 0;
  return algo::PageRank(g, opts).ValueOrDie().scores;
}

std::vector<uint32_t> FourThreadHybridBfs(const CsrGraph& g) {
  algo::HybridBfsOptions opts;
  opts.num_threads = 4;
  return algo::HybridBfs(g, 0, opts).ValueOrDie();
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ParallelRuntimeTest, NestedForkRunsInlineWithSoloResults) {
  // A kernel called from inside a fork finds the team busy and runs its own
  // forks inline; the per-worker accumulators stay keyed on num_threads, so
  // every inner result equals a solo run bit for bit.
  const CsrGraph g = KernelGraph();
  const std::vector<double> solo = PushPageRank(g);
  std::vector<std::vector<double>> inner(6);
  ParallelFor(
      4, 0, inner.size(), [&](uint64_t i) { inner[i] = PushPageRank(g); },
      Schedule::kDynamic, /*grain=*/1);
  for (size_t i = 0; i < inner.size(); ++i) {
    EXPECT_TRUE(SameBits(inner[i], solo)) << "inner run " << i;
  }
}

TEST(ParallelRuntimeTest, ConcurrentCallersGetSoloResults) {
  // Two application threads share one team: whichever finds it busy runs
  // inline. Either way every result is bitwise a solo run's.
  const CsrGraph g = KernelGraph();
  const std::vector<double> solo_rank = PushPageRank(g);
  const std::vector<uint32_t> solo_bfs = FourThreadHybridBfs(g);
  std::atomic<int> mismatches{0};
  auto client = [&] {
    for (int rep = 0; rep < 50; ++rep) {
      if (FourThreadHybridBfs(g) != solo_bfs) mismatches.fetch_add(1);
      if (!SameBits(PushPageRank(g), solo_rank)) mismatches.fetch_add(1);
    }
  };
  std::thread a(client), b(client);
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ubigraph
