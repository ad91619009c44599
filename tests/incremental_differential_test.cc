// Randomized differential harness for the incremental engines: after EVERY
// update batch the maintained PageRank scores, component labels, and core
// numbers are checked against full recomputes on the live edge set, across
// thread counts 1/2/4/8.
//
// Equality contract (measured, see DESIGN.md "Incremental maintenance"):
//   - integer results (core numbers, canonical component labels) match the
//     recompute EXACTLY;
//   - PageRank scores are bitwise-identical ACROSS THREAD COUNTS (every path
//     reduces over the same fixed chunk tree), and within 1e-10 per vertex
//     of a from-scratch kPull run at the same tolerance — two IEEE-754
//     trajectories into the same fixpoint region differ by ulps (measured
//     max ~2e-16 on these graph sizes), so bitwise-vs-recompute is not a
//     meaningful contract for floating point.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <utility>
#include <vector>

#include "algorithms/connected_components.h"
#include "algorithms/kcore.h"
#include "algorithms/pagerank.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "stream/incremental.h"
#include "stream/incremental_components.h"
#include "stream/incremental_kcore.h"
#include "stream/incremental_pagerank.h"
#include "update_stream_util.h"

namespace ubigraph::stream {
namespace {

using test::StreamKind;
using test::UpdateStreamGen;

constexpr double kTolerance = 1e-12;   // engine and oracle convergence target
constexpr double kScoreSlack = 1e-10;  // incremental-vs-recompute per vertex
constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};

std::vector<double> OracleScores(const EdgeList& live) {
  auto g = CsrGraph::FromEdges(live, CsrOptions{.build_in_edges = true})
               .ValueOrDie();
  algo::PageRankOptions opts;
  opts.tolerance = kTolerance;
  opts.max_iterations = 500;
  opts.mode = algo::PageRankMode::kPull;
  auto pr = algo::PageRank(g, opts).ValueOrDie();
  EXPECT_TRUE(pr.converged);
  return pr.scores;
}

std::vector<uint32_t> OracleLabels(const EdgeList& live) {
  auto g = CsrGraph::FromEdges(live).ValueOrDie();
  return algo::WeaklyConnectedComponents(g).label;
}

std::vector<uint32_t> OracleCores(const EdgeList& live) {
  auto g = CsrGraph::FromEdges(live, CsrOptions{.directed = false}).ValueOrDie();
  return algo::CoreDecomposition(g);
}

// Drives one stream over all three engines (PageRank once per thread count)
// and checks every batch against the recompute oracles.
void RunDifferential(const EdgeList& base, uint64_t seed, StreamKind kind,
                     VertexId window, size_t num_batches, size_t batch_size) {
  UpdateStreamGen gen(base, seed, {.window = window});
  const EdgeList init = gen.InitialEdges();
  ASSERT_GT(init.num_edges(), 0u);

  std::vector<IncrementalPageRank> pageranks;
  for (uint32_t t : kThreadCounts) {
    pageranks.push_back(
        IncrementalPageRank::Create(
            init, IncrementalPageRank::Options{.tolerance = kTolerance,
                                               .max_sweeps = 500,
                                               .num_threads = t})
            .ValueOrDie());
    ASSERT_TRUE(pageranks.back().initial_result().converged);
  }
  auto components =
      IncrementalComponents::Create(init, {.num_threads = 4}).ValueOrDie();
  IncrementalKCore kcore(init.num_vertices(), {.num_threads = 2});
  for (const Edge& e : init.edges()) ASSERT_TRUE(kcore.InsertEdge(e.src, e.dst).ok());

  for (size_t b = 0; b < num_batches; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const std::vector<GraphDelta> batch = gen.NextBatch(kind, batch_size);
    for (auto& pr : pageranks) {
      auto res = pr.ApplyBatch(batch);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      EXPECT_TRUE(res.ValueOrDie().converged);
    }
    ASSERT_TRUE(components.ApplyBatch(batch).ok());
    ASSERT_TRUE(kcore.ApplyBatch(batch).ok());

    // Cross-thread bitwise equality of the maintained scores.
    const std::vector<double>& serial = pageranks[0].scores();
    for (size_t t = 1; t < pageranks.size(); ++t) {
      const std::vector<double>& other = pageranks[t].scores();
      ASSERT_EQ(serial.size(), other.size());
      EXPECT_EQ(0, std::memcmp(serial.data(), other.data(),
                               serial.size() * sizeof(double)))
          << "scores diverge between 1 and " << kThreadCounts[t] << " threads";
    }

    const EdgeList live = gen.LiveEdges();
    if (live.num_edges() == 0) break;  // delete-only stream ran dry

    const std::vector<double> oracle_scores = OracleScores(live);
    for (VertexId v = 0; v < init.num_vertices(); ++v) {
      ASSERT_NEAR(serial[v], oracle_scores[v], kScoreSlack) << "vertex " << v;
    }
    EXPECT_EQ(components.Labels(), OracleLabels(live));
    EXPECT_EQ(kcore.core_numbers(), OracleCores(live));
  }
}

EdgeList RmatBase() {
  Rng rng(7);
  return gen::Rmat(7, 512, &rng).ValueOrDie();
}

EdgeList PowerLawBase() {
  Rng rng(11);
  return gen::PowerLawDirected(200, 2.0, 32, &rng).ValueOrDie();
}

TEST(IncrementalDifferentialTest, RmatInsertOnly) {
  RunDifferential(RmatBase(), 101, StreamKind::kInsertOnly, 0, 4, 12);
}

TEST(IncrementalDifferentialTest, RmatDeleteOnly) {
  RunDifferential(RmatBase(), 102, StreamKind::kDeleteOnly, 0, 4, 12);
}

TEST(IncrementalDifferentialTest, RmatMixed) {
  RunDifferential(RmatBase(), 103, StreamKind::kMixed, 0, 4, 12);
}

TEST(IncrementalDifferentialTest, PowerLawInsertOnly) {
  RunDifferential(PowerLawBase(), 201, StreamKind::kInsertOnly, 0, 4, 12);
}

TEST(IncrementalDifferentialTest, PowerLawDeleteOnly) {
  RunDifferential(PowerLawBase(), 202, StreamKind::kDeleteOnly, 0, 4, 12);
}

TEST(IncrementalDifferentialTest, PowerLawMixed) {
  RunDifferential(PowerLawBase(), 203, StreamKind::kMixed, 0, 4, 12);
}

TEST(IncrementalDifferentialTest, LocalizedMixedUpdates) {
  // Updates confined to a 24-vertex window — the workload where incremental
  // maintenance pays (see incremental_counters_test.cc for the work pins).
  RunDifferential(RmatBase(), 104, StreamKind::kMixed, 24, 4, 12);
}

TEST(IncrementalDifferentialTest, UpdateStreamRegime) {
  // The end-to-end benchmark's update_stream regime: a sanitized RMAT-11
  // base, 64-delta mixed batches in a V/16 window, engines at 4 threads,
  // checked against recomputes with the benchmark's own bounds (exact cores
  // and labels, PageRank within L1 1e-6). The window fills as the batches
  // run, which is where the engines' costs and repair paths change.
  constexpr size_t kBatches = 96;
  constexpr size_t kCheckEvery = 8;
  Rng rng(6);
  const EdgeList base = gen::Rmat(11, uint64_t{8} << 11, &rng).ValueOrDie();
  const VertexId n = base.num_vertices();
  UpdateStreamGen gen(base, 1, {.window = n / 16});
  const EdgeList init = gen.InitialEdges();
  auto pagerank =
      IncrementalPageRank::Create(init, {.num_threads = 4}).ValueOrDie();
  auto components =
      IncrementalComponents::Create(init, {.num_threads = 4}).ValueOrDie();
  IncrementalKCore kcore(n, {.num_threads = 4});
  for (const Edge& e : init.edges()) ASSERT_TRUE(kcore.InsertEdge(e.src, e.dst).ok());

  for (size_t b = 1; b <= kBatches; ++b) {
    SCOPED_TRACE("batch " + std::to_string(b));
    const std::vector<GraphDelta> batch = gen.NextBatch(StreamKind::kMixed, 64);
    ASSERT_TRUE(pagerank.ApplyBatch(batch).ok());
    ASSERT_TRUE(components.ApplyBatch(batch).ok());
    ASSERT_TRUE(kcore.ApplyBatch(batch).ok());
    if (b % kCheckEvery != 0 && b != kBatches) continue;

    const EdgeList live = gen.LiveEdges();
    const auto directed =
        CsrGraph::FromEdges(live, CsrOptions{.build_in_edges = true}).ValueOrDie();
    algo::PageRankOptions popts;
    popts.max_iterations = 200;
    popts.mode = algo::PageRankMode::kPull;
    const std::vector<double> ref = algo::PageRank(directed, popts).ValueOrDie().scores;
    ASSERT_EQ(ref.size(), pagerank.scores().size());
    double l1 = 0;
    for (size_t i = 0; i < ref.size(); ++i) l1 += std::fabs(ref[i] - pagerank.scores()[i]);
    EXPECT_LE(l1, 1e-6);
    const algo::ComponentResult cc = algo::WeaklyConnectedComponents(directed);
    EXPECT_EQ(components.Labels(), cc.label);
    EXPECT_EQ(components.num_components(), cc.num_components);
    EXPECT_EQ(kcore.core_numbers(), OracleCores(live));
  }
}

TEST(IncrementalDifferentialTest, BadBatchRejectedAtomically) {
  const EdgeList base = RmatBase();
  UpdateStreamGen gen(base, 55);
  const EdgeList init = gen.InitialEdges();

  auto pr = IncrementalPageRank::Create(init).ValueOrDie();
  auto cc = IncrementalComponents::Create(init).ValueOrDie();
  IncrementalKCore kc(init.num_vertices());
  for (const Edge& e : init.edges()) ASSERT_TRUE(kc.InsertEdge(e.src, e.dst).ok());

  const std::vector<double> scores_before = pr.scores();
  const std::vector<uint32_t> labels_before = cc.Labels();
  const std::vector<uint32_t> cores_before = kc.core_numbers();

  // A batch that is fine for a few deltas, then removes an arc that was
  // already removed earlier in the same batch: every engine must reject it
  // without applying ANY of it. The leading insert must be a pair absent
  // from the initial set so the simple-graph k-core engine gets past it and
  // trips on the same double-remove as the multigraph engines.
  const Edge& victim = init.edges().front();
  std::set<std::pair<VertexId, VertexId>> live;
  for (const Edge& e : init.edges()) {
    live.insert(std::minmax(e.src, e.dst));
  }
  VertexId free_dst = 1;
  while (live.count(std::minmax<VertexId>(0, free_dst))) ++free_dst;
  ASSERT_LT(free_dst, init.num_vertices());
  std::vector<GraphDelta> bad = {
      GraphDelta::Insert(0, free_dst),
      GraphDelta::Remove(victim.src, victim.dst),
      GraphDelta::Remove(victim.src, victim.dst),
  };
  EXPECT_TRUE(pr.ApplyBatch(bad).status().IsNotFound());
  EXPECT_TRUE(cc.ApplyBatch(bad).status().IsNotFound());
  EXPECT_TRUE(kc.ApplyBatch(bad).status().IsNotFound());

  std::vector<GraphDelta> out_of_range = {GraphDelta::Insert(0, init.num_vertices())};
  EXPECT_TRUE(pr.ApplyBatch(out_of_range).status().IsOutOfRange());
  EXPECT_TRUE(cc.ApplyBatch(out_of_range).status().IsOutOfRange());
  EXPECT_TRUE(kc.ApplyBatch(out_of_range).status().IsOutOfRange());

  EXPECT_EQ(pr.scores(), scores_before);
  EXPECT_EQ(cc.Labels(), labels_before);
  EXPECT_EQ(kc.core_numbers(), cores_before);
}

TEST(IncrementalDifferentialTest, DeltaLogDrivesEngines) {
  // End-to-end wiring: mutate a DynamicGraph with the delta log enabled,
  // drain it with TakeDeltas, and feed the batch to an engine — the answer
  // matches recomputing from the DynamicGraph's own snapshot.
  DynamicGraph dyn(6, /*allow_multi_edges=*/false);
  for (auto [s, d] : {std::pair<VertexId, VertexId>{0, 1}, {1, 2}, {2, 3}, {4, 5}}) {
    ASSERT_TRUE(dyn.AddEdge(s, d).ok());
  }
  auto cc = IncrementalComponents::Create(dyn.ToEdgeList()).ValueOrDie();
  EXPECT_EQ(cc.num_components(), 2u);

  dyn.EnableDeltaLog();
  ASSERT_TRUE(dyn.AddEdge(3, 4).ok());                 // bridges the two
  ASSERT_TRUE(dyn.RemoveEdgeBetween(0, 1).ok());       // splits off vertex 0
  EXPECT_EQ(dyn.pending_deltas(), 2u);
  const std::vector<GraphDelta> batch = dyn.TakeDeltas();
  EXPECT_EQ(dyn.pending_deltas(), 0u);

  ASSERT_TRUE(cc.ApplyBatch(batch).ok());
  EXPECT_EQ(cc.Labels(), OracleLabels(dyn.ToEdgeList()));
  EXPECT_EQ(cc.num_components(), 2u);  // {0} and {1..5}
  EXPECT_EQ(cc.rebuilds(), 1u);
}

}  // namespace
}  // namespace ubigraph::stream
