#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "algorithms/centrality.h"
#include "algorithms/pagerank.h"
#include "common/random.h"
#include "gen/generators.h"

namespace ubigraph::algo {
namespace {

CsrGraph DirectedWithInEdges(EdgeList el) {
  CsrOptions opts;
  opts.build_in_edges = true;
  return CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
}

TEST(PageRankTest, SumsToOne) {
  Rng rng(1);
  auto el = gen::ErdosRenyi(50, 250, &rng).ValueOrDie();
  auto pr = PageRank(DirectedWithInEdges(std::move(el)));
  ASSERT_TRUE(pr.ok());
  double sum = std::accumulate(pr->scores.begin(), pr->scores.end(), 0.0);
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_TRUE(pr->converged);
}

TEST(PageRankTest, UniformOnCycle) {
  auto pr = PageRank(DirectedWithInEdges(gen::Cycle(8))).ValueOrDie();
  for (double s : pr.scores) EXPECT_NEAR(s, 1.0 / 8, 1e-9);
}

TEST(PageRankTest, HubOfStarScoresHighest) {
  // Star with edges leaf -> hub.
  EdgeList el(5);
  for (VertexId leaf = 1; leaf <= 4; ++leaf) el.Add(leaf, 0);
  auto pr = PageRank(DirectedWithInEdges(std::move(el))).ValueOrDie();
  for (VertexId leaf = 1; leaf <= 4; ++leaf) {
    EXPECT_GT(pr.scores[0], pr.scores[leaf]);
  }
}

TEST(PageRankTest, DanglingMassConserved) {
  // 0 -> 1, 1 is dangling.
  auto pr = PageRank(DirectedWithInEdges(gen::Path(2))).ValueOrDie();
  EXPECT_NEAR(pr.scores[0] + pr.scores[1], 1.0, 1e-9);
  EXPECT_GT(pr.scores[1], pr.scores[0]);  // 1 receives from 0 and teleports
}

TEST(PageRankTest, PersonalizationBiasesScores) {
  PageRankOptions opts;
  opts.personalization.assign(6, 0.0);
  opts.personalization[3] = 1.0;
  CsrOptions copts;
  copts.directed = false;
  auto g = CsrGraph::FromEdges(gen::Cycle(6), copts).ValueOrDie();
  auto pr = PageRank(g, opts).ValueOrDie();
  for (VertexId v = 0; v < 6; ++v) {
    if (v != 3) {
      EXPECT_GT(pr.scores[3], pr.scores[v]);
    }
  }
}

TEST(PageRankTest, InvalidArgumentsRejected) {
  auto g = DirectedWithInEdges(gen::Path(3));
  PageRankOptions bad_damping;
  bad_damping.damping = 1.5;
  EXPECT_FALSE(PageRank(g, bad_damping).ok());
  PageRankOptions bad_pers;
  bad_pers.personalization = {1.0};  // wrong size
  EXPECT_FALSE(PageRank(g, bad_pers).ok());
  auto empty = CsrGraph::FromEdges(EdgeList{}).ValueOrDie();
  EXPECT_FALSE(PageRank(empty).ok());
}

TEST(PageRankTest, DirectedWithoutInEdgesFallsBackToPush) {
  auto g = CsrGraph::FromEdges(gen::Path(3)).ValueOrDie();
  // kAuto degrades to push mode (no in-edge index needed)...
  auto pr = PageRank(g).ValueOrDie();
  EXPECT_EQ(pr.mode, PageRankMode::kPush);
  // ...but an explicitly requested pull mode fails with a clear Status.
  PageRankOptions opts;
  opts.mode = PageRankMode::kPull;
  EXPECT_FALSE(PageRank(g, opts).ok());
}

TEST(PageRankTest, MatchesPowerIterationOracle) {
  // 4-vertex graph solved against an independent dense-matrix iteration.
  EdgeList el(4);
  el.Add(0, 1);
  el.Add(0, 2);
  el.Add(1, 2);
  el.Add(2, 0);
  el.Add(3, 2);
  auto g = DirectedWithInEdges(std::move(el));
  auto pr = PageRank(g).ValueOrDie();

  const double d = 0.85;
  std::vector<double> x(4, 0.25), next(4);
  for (int iter = 0; iter < 200; ++iter) {
    double dangling = 0.0;  // no dangling vertices here except none
    for (int v = 0; v < 4; ++v) {
      double in = 0.0;
      if (v == 0) in += x[2] / 1.0;
      if (v == 1) in += x[0] / 2.0;
      if (v == 2) in += x[0] / 2.0 + x[1] / 1.0 + x[3] / 1.0;
      next[v] = (1 - d) / 4 + d * (in + dangling / 4);
    }
    x = next;
  }
  for (int v = 0; v < 4; ++v) EXPECT_NEAR(pr.scores[v], x[v], 1e-6);
}

TEST(TopKTest, OrderAndTies) {
  std::vector<double> scores{0.1, 0.5, 0.5, 0.3};
  auto top = TopK(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);  // tie broken by id
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 3u);
  EXPECT_EQ(TopK(scores, 99).size(), 4u);
}

TEST(BetweennessTest, PathCenterHasHighestScore) {
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(gen::Path(5), opts).ValueOrDie();
  auto bc = BetweennessCentrality(g);
  // Path 0-1-2-3-4: center vertex 2 carries the most pairs.
  EXPECT_GT(bc[2], bc[1]);
  EXPECT_GT(bc[1], bc[0]);
  EXPECT_DOUBLE_EQ(bc[0], 0.0);
  // Known value: vertex 2 lies on 0-3,0-4,1-3,1-4 paths = 4 pairs.
  EXPECT_DOUBLE_EQ(bc[2], 4.0);
}

TEST(BetweennessTest, StarHubTakesAll) {
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(gen::Star(4), opts).ValueOrDie();
  auto bc = BetweennessCentrality(g);
  // Hub mediates all C(4,2) = 6 leaf pairs.
  EXPECT_DOUBLE_EQ(bc[0], 6.0);
  for (VertexId leaf = 1; leaf <= 4; ++leaf) EXPECT_DOUBLE_EQ(bc[leaf], 0.0);
}

TEST(BetweennessTest, SplitAcrossEqualPaths) {
  // Square 0-1-2-3-0 (undirected): two shortest paths between opposite
  // corners; each mid vertex gets 0.5 per opposite pair.
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(gen::Cycle(4), opts).ValueOrDie();
  auto bc = BetweennessCentrality(g);
  for (VertexId v = 0; v < 4; ++v) EXPECT_DOUBLE_EQ(bc[v], 0.5);
}

TEST(BetweennessTest, ApproxConvergesToExact) {
  Rng rng(6);
  auto el = gen::BarabasiAlbert(40, 2, &rng).ValueOrDie();
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
  auto exact = BetweennessCentrality(g);
  Rng srng(7);
  auto approx = ApproxBetweennessCentrality(g, 40, &srng);  // all pivots
  // With num_samples == n (with replacement) expect high rank correlation;
  // check the top-1 vertex matches.
  auto top_exact = TopK(exact, 1)[0];
  auto top_approx = TopK(approx, 1)[0];
  EXPECT_EQ(top_exact, top_approx);
}

TEST(ClosenessTest, CenterOfPathIsClosest) {
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(gen::Path(5), opts).ValueOrDie();
  auto cc = ClosenessCentrality(g);
  EXPECT_GT(cc[2], cc[0]);
  EXPECT_GT(cc[2], cc[4]);
  // Exact: vertex 2 distances = 2+1+1+2 = 6 -> 4/6.
  EXPECT_NEAR(cc[2], 4.0 / 6.0, 1e-12);
}

TEST(ClosenessTest, DisconnectedHandled) {
  auto g = CsrGraph::FromPairs(4, {{0, 1}, {1, 0}}).ValueOrDie();
  auto cc = ClosenessCentrality(g);
  EXPECT_GT(cc[0], 0.0);
  EXPECT_DOUBLE_EQ(cc[2], 0.0);  // isolated
}

TEST(HarmonicTest, CompleteGraphAllEqual) {
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(gen::Complete(5), opts).ValueOrDie();
  auto hc = HarmonicCloseness(g);
  for (double h : hc) EXPECT_DOUBLE_EQ(h, 4.0);
}

TEST(HarmonicTest, UnreachableContributesZero) {
  auto g = CsrGraph::FromPairs(3, {{0, 1}}).ValueOrDie();
  auto hc = HarmonicCloseness(g);
  EXPECT_DOUBLE_EQ(hc[0], 1.0);
  EXPECT_DOUBLE_EQ(hc[1], 0.0);
}

TEST(DegreeCentralityTest, NormalizedByNMinus1) {
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(gen::Star(4), opts).ValueOrDie();
  auto dc = DegreeCentrality(g);
  EXPECT_DOUBLE_EQ(dc[0], 1.0);
  EXPECT_DOUBLE_EQ(dc[1], 0.25);
}

}  // namespace
}  // namespace ubigraph::algo
