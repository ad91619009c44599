// Pins the cost counters of the incremental engines — the components
// engine's insert-cheap / delete-expensive asymmetry must be visible in its
// rebuild counters, the k-core engine's one peel per batch in its own, and
// both in the stream.incremental.* observability counters, with exact values
// on hand-computable graphs.
#include <gtest/gtest.h>

#include <vector>

#include "algorithms/pagerank.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "obs/metrics.h"
#include "stream/incremental.h"
#include "stream/incremental_components.h"
#include "stream/incremental_kcore.h"
#include "stream/incremental_pagerank.h"
#include "update_stream_util.h"

namespace ubigraph::stream {
namespace {

using test::StreamKind;
using test::UpdateStreamGen;

class IncrementalCountersTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Global().Reset();
    obs::MetricsRegistry::Global().set_enabled(true);
  }

  static int64_t CounterValue(const std::string& name) {
    return obs::MetricsRegistry::Global().GetCounter(name)->Value();
  }
};

EdgeList Triangle(VertexId extra_vertices = 0) {
  EdgeList el(3 + extra_vertices);
  el.Add(0, 1);
  el.Add(1, 2);
  el.Add(0, 2);
  return el;
}

TEST_F(IncrementalCountersTest, InsertOnlyStreamsNeverRebuild) {
  Rng rng(3);
  const EdgeList base = gen::Rmat(7, 400, &rng).ValueOrDie();
  UpdateStreamGen gen(base, 77);
  const EdgeList init = gen.InitialEdges();

  auto cc = IncrementalComponents::Create(init).ValueOrDie();
  IncrementalKCore kc(init.num_vertices());
  for (const Edge& e : init.edges()) ASSERT_TRUE(kc.InsertEdge(e.src, e.dst).ok());

  for (int b = 0; b < 6; ++b) {
    const auto batch = gen.NextBatch(StreamKind::kInsertOnly, 10);
    ASSERT_TRUE(cc.ApplyBatch(batch).ok());
    ASSERT_TRUE(kc.ApplyBatch(batch).ok());
  }
  EXPECT_EQ(cc.rebuilds(), 0u);
  EXPECT_EQ(CounterValue("stream.incremental.components.rebuilds"), 0);
  // The k-core engine peels once per batch whatever the batch holds; the
  // first batch's peel also absorbs the edge-at-a-time load.
  EXPECT_EQ(kc.full_rebuilds(), 6u);
  EXPECT_EQ(CounterValue("stream.incremental.kcore.rebuilds"), 6);
}

TEST_F(IncrementalCountersTest, ComponentsRebuildOnlyWhenLastConnectionDies) {
  // Two parallel arcs plus a reverse arc between 0 and 1, and a bridge 1-2.
  EdgeList el(3);
  el.Add(0, 1);
  el.Add(0, 1);
  el.Add(1, 0);
  el.Add(1, 2);
  auto cc = IncrementalComponents::Create(el).ValueOrDie();
  EXPECT_EQ(cc.num_components(), 1u);

  // Removing redundant copies never rebuilds: a parallel arc, then the
  // reverse arc, each leave at least one live connection between 0 and 1.
  std::vector<GraphDelta> batch = {GraphDelta::Remove(0, 1),
                                   GraphDelta::Remove(1, 0)};
  ASSERT_TRUE(cc.ApplyBatch(batch).ok());
  EXPECT_EQ(cc.rebuilds(), 0u);
  EXPECT_EQ(cc.num_components(), 1u);

  // Removing the LAST 0-1 connection must rebuild (and split).
  batch = {GraphDelta::Remove(0, 1)};
  auto res = cc.ApplyBatch(batch).ValueOrDie();
  EXPECT_EQ(res.rebuilds, 1u);
  EXPECT_EQ(cc.rebuilds(), 1u);
  EXPECT_EQ(cc.num_components(), 2u);

  // A batch mixing a split-deletion with inserts still rebuilds once.
  batch = {GraphDelta::Insert(0, 1), GraphDelta::Remove(1, 2),
           GraphDelta::Insert(2, 0)};
  res = cc.ApplyBatch(batch).ValueOrDie();
  EXPECT_EQ(res.rebuilds, 1u);
  EXPECT_EQ(cc.rebuilds(), 2u);
  EXPECT_EQ(cc.num_components(), 1u);
}

TEST_F(IncrementalCountersTest, ComponentsObsCountersMatchHandComputation) {
  // Triangle 0-1-2 plus isolated vertex 3.
  auto cc = IncrementalComponents::Create(Triangle(1)).ValueOrDie();

  // Insert (0,3): one union attempt (1 edge), one merge (2 vertices).
  ASSERT_TRUE(cc.ApplyBatch(std::vector<GraphDelta>{GraphDelta::Insert(0, 3)}).ok());
  EXPECT_EQ(CounterValue("stream.incremental.components.batches"), 1);
  EXPECT_EQ(CounterValue("stream.incremental.components.vertices_reactivated"), 2);
  EXPECT_EQ(CounterValue("stream.incremental.components.edges_rerelaxed"), 1);
  EXPECT_EQ(CounterValue("stream.incremental.components.rebuilds"), 0);

  // Remove (0,3): last 0-3 connection -> rebuild scanning the 3 surviving
  // arcs and relabeling all 4 vertices.
  ASSERT_TRUE(cc.ApplyBatch(std::vector<GraphDelta>{GraphDelta::Remove(0, 3)}).ok());
  EXPECT_EQ(CounterValue("stream.incremental.components.batches"), 2);
  EXPECT_EQ(CounterValue("stream.incremental.components.vertices_reactivated"), 2 + 4);
  EXPECT_EQ(CounterValue("stream.incremental.components.edges_rerelaxed"), 1 + 3);
  EXPECT_EQ(CounterValue("stream.incremental.components.rebuilds"), 1);
}

TEST_F(IncrementalCountersTest, KCoreDeletionRepairVsLegacyRebuild) {
  // Single-edge calls: no peel until the cores are read, then exactly one.
  IncrementalKCore lazy(3);
  ASSERT_TRUE(lazy.InsertEdge(0, 1).ok());
  ASSERT_TRUE(lazy.InsertEdge(1, 2).ok());
  ASSERT_TRUE(lazy.InsertEdge(0, 2).ok());
  ASSERT_TRUE(lazy.RemoveEdge(0, 1).ok());
  EXPECT_EQ(lazy.full_rebuilds(), 0u);
  EXPECT_EQ(lazy.core_numbers(), (std::vector<uint32_t>{1, 1, 1}));
  EXPECT_EQ(lazy.full_rebuilds(), 1u);

  // The same deletion as a batch: the batch peels before it returns, and
  // reading afterwards peels nothing more.
  IncrementalKCore batched(3);
  ASSERT_TRUE(batched.InsertEdge(0, 1).ok());
  ASSERT_TRUE(batched.InsertEdge(1, 2).ok());
  ASSERT_TRUE(batched.InsertEdge(0, 2).ok());
  const auto res =
      batched.ApplyBatch(std::vector<GraphDelta>{GraphDelta::Remove(0, 1)})
          .ValueOrDie();
  EXPECT_EQ(res.full_rebuilds, 1u);
  EXPECT_EQ(batched.full_rebuilds(), 1u);
  EXPECT_EQ(batched.core_numbers(), lazy.core_numbers());
  EXPECT_EQ(batched.full_rebuilds(), 1u);
}

TEST_F(IncrementalCountersTest, KCoreObsCountersMatchHandComputation) {
  // Triangle 0-1-2 (all core 2) plus isolated vertex 3.
  IncrementalKCore kc(4);
  ASSERT_TRUE(kc.InsertEdge(0, 1).ok());
  ASSERT_TRUE(kc.InsertEdge(1, 2).ok());
  ASSERT_TRUE(kc.InsertEdge(0, 2).ok());

  // Insert (0,3): one peel orders all 4 vertices and scans every row entry,
  // 2 per edge of the 4 now present; 3 is promoted to core 1.
  auto res = kc.ApplyBatch(std::vector<GraphDelta>{GraphDelta::Insert(0, 3)})
                 .ValueOrDie();
  EXPECT_EQ(res.vertices_reactivated, 4u);
  EXPECT_EQ(res.edges_rerelaxed, 8u);
  EXPECT_EQ(res.full_rebuilds, 1u);
  EXPECT_EQ(kc.CoreNumber(3), 1u);
  EXPECT_EQ(CounterValue("stream.incremental.kcore.vertices_reactivated"), 4);
  EXPECT_EQ(CounterValue("stream.incremental.kcore.edges_rerelaxed"), 8);

  // Remove (0,1): the triangle breaks, so 0, 1 and 2 drop to core 1. The
  // peel scans the 3 surviving edges' 6 row entries.
  res = kc.ApplyBatch(std::vector<GraphDelta>{GraphDelta::Remove(0, 1)})
            .ValueOrDie();
  EXPECT_EQ(res.vertices_reactivated, 4u);
  EXPECT_EQ(res.edges_rerelaxed, 6u);
  EXPECT_EQ(res.full_rebuilds, 1u);
  EXPECT_EQ(kc.core_numbers(), (std::vector<uint32_t>{1, 1, 1, 1}));
  EXPECT_EQ(CounterValue("stream.incremental.kcore.batches"), 2);
  EXPECT_EQ(CounterValue("stream.incremental.kcore.vertices_reactivated"), 4 + 4);
  EXPECT_EQ(CounterValue("stream.incremental.kcore.edges_rerelaxed"), 8 + 6);
  EXPECT_EQ(CounterValue("stream.incremental.kcore.rebuilds"), 2);
}

TEST_F(IncrementalCountersTest, PageRankObsCountersMatchBatchReport) {
  Rng rng(5);
  const EdgeList base = gen::Rmat(7, 400, &rng).ValueOrDie();
  UpdateStreamGen gen(base, 9, {.window = 16});
  auto pr = IncrementalPageRank::Create(gen.InitialEdges()).ValueOrDie();

  const auto batch = gen.NextBatch(StreamKind::kMixed, 6);
  const auto res = pr.ApplyBatch(batch).ValueOrDie();
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(CounterValue("stream.incremental.pagerank.batches"), 1);
  EXPECT_EQ(CounterValue("stream.incremental.pagerank.vertices_reactivated"),
            static_cast<int64_t>(res.vertices_reactivated));
  EXPECT_EQ(CounterValue("stream.incremental.pagerank.edges_rerelaxed"),
            static_cast<int64_t>(res.edges_rerelaxed));
  EXPECT_EQ(CounterValue("stream.incremental.pagerank.rebuilds"), 0);
}

TEST_F(IncrementalCountersTest, LocalizedBatchesTouchFewerEdgesThanRecompute) {
  // The acceptance asymmetry: on localized updates the incremental engine
  // must re-relax strictly fewer edges than a from-scratch run would.
  Rng rng(13);
  const EdgeList base = gen::Rmat(9, 4096, &rng).ValueOrDie();
  UpdateStreamGen gen(base, 21, {.window = 32});
  auto pr = IncrementalPageRank::Create(gen.InitialEdges()).ValueOrDie();

  const auto batch = gen.NextBatch(StreamKind::kMixed, 8);
  const auto res = pr.ApplyBatch(batch).ValueOrDie();
  ASSERT_TRUE(res.converged);

  const EdgeList live = gen.LiveEdges();
  auto g = CsrGraph::FromEdges(live, CsrOptions{.build_in_edges = true})
               .ValueOrDie();
  algo::PageRankOptions scratch_opts;
  scratch_opts.mode = algo::PageRankMode::kPull;
  auto scratch = algo::PageRank(g, scratch_opts).ValueOrDie();
  const uint64_t recompute_edges =
      static_cast<uint64_t>(scratch.iterations) * live.num_edges();
  EXPECT_LT(res.edges_rerelaxed, recompute_edges);
  EXPECT_EQ(CounterValue("stream.incremental.pagerank.edges_rerelaxed"),
            static_cast<int64_t>(res.edges_rerelaxed));
}

TEST_F(IncrementalCountersTest, DisabledRegistrySkipsFlushes) {
  obs::MetricsRegistry::Global().set_enabled(false);
  auto cc = IncrementalComponents::Create(Triangle()).ValueOrDie();
  ASSERT_TRUE(cc.ApplyBatch(std::vector<GraphDelta>{GraphDelta::Insert(1, 0)}).ok());
  obs::MetricsRegistry::Global().set_enabled(true);
  EXPECT_EQ(CounterValue("stream.incremental.components.batches"), 0);
}

}  // namespace
}  // namespace ubigraph::stream
