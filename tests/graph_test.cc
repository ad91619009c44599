#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "algorithms/mst.h"
#include "algorithms/shortest_path.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "graph/dynamic_graph.h"
#include "graph/edge_list.h"
#include "graph/property_graph.h"
#include "obs/metrics.h"

namespace ubigraph {
namespace {

TEST(EdgeListTest, AddGrowsVertexCount) {
  EdgeList el;
  el.Add(2, 5);
  EXPECT_EQ(el.num_vertices(), 6u);
  EXPECT_EQ(el.num_edges(), 1u);
  el.Add(7, 0);
  EXPECT_EQ(el.num_vertices(), 8u);
}

TEST(EdgeListTest, EnsureVerticesNeverShrinks) {
  EdgeList el(10);
  el.EnsureVertices(5);
  EXPECT_EQ(el.num_vertices(), 10u);
  el.EnsureVertices(20);
  EXPECT_EQ(el.num_vertices(), 20u);
}

TEST(EdgeListTest, DeduplicateKeepsFirstWeight) {
  EdgeList el;
  el.Add(0, 1, 2.0);
  el.Add(0, 1, 9.0);
  el.Add(1, 0, 1.0);
  el.Deduplicate();
  EXPECT_EQ(el.num_edges(), 2u);
}

TEST(EdgeListTest, RemoveSelfLoops) {
  EdgeList el;
  el.Add(0, 0);
  el.Add(0, 1);
  el.Add(1, 1);
  el.RemoveSelfLoops();
  EXPECT_EQ(el.num_edges(), 1u);
  EXPECT_EQ(el.edges()[0].dst, 1u);
}

TEST(EdgeListTest, ReversedSwapsEndpoints) {
  EdgeList el;
  el.Add(0, 1, 3.0);
  EdgeList rev = el.Reversed();
  EXPECT_EQ(rev.edges()[0].src, 1u);
  EXPECT_EQ(rev.edges()[0].dst, 0u);
  EXPECT_EQ(rev.edges()[0].weight, 3.0);
}

TEST(EdgeListTest, SymmetrizedDoublesNonLoops) {
  EdgeList el;
  el.Add(0, 1);
  el.Add(2, 2);
  EdgeList sym = el.Symmetrized();
  EXPECT_EQ(sym.num_edges(), 3u);  // 0->1, 1->0, 2->2 once
}

TEST(EdgeListTest, ValidateCatchesOutOfRange) {
  EdgeList el(2);
  el.mutable_edges().push_back(Edge{0, 5, 1.0});
  EXPECT_FALSE(el.Validate().ok());
}

TEST(CsrGraphTest, BasicConstruction) {
  EdgeList el(4);
  el.Add(0, 1);
  el.Add(0, 2);
  el.Add(2, 3);
  auto g = CsrGraph::FromEdges(std::move(el));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_vertices(), 4u);
  EXPECT_EQ(g->num_edges(), 3u);
  EXPECT_EQ(g->OutDegree(0), 2u);
  EXPECT_EQ(g->OutDegree(3), 0u);
  EXPECT_TRUE(g->HasEdge(0, 2));
  EXPECT_FALSE(g->HasEdge(2, 0));
}

TEST(CsrGraphTest, NeighborsSortedWhenRequested) {
  EdgeList el(3);
  el.Add(0, 2);
  el.Add(0, 1);
  auto g = CsrGraph::FromEdges(std::move(el)).ValueOrDie();
  auto nbrs = g.OutNeighbors(0);
  EXPECT_EQ(nbrs[0], 1u);
  EXPECT_EQ(nbrs[1], 2u);
}

TEST(CsrGraphTest, WeightsFollowSortedNeighbors) {
  EdgeList el(3);
  el.Add(0, 2, 20.0);
  el.Add(0, 1, 10.0);
  auto g = CsrGraph::FromEdges(std::move(el)).ValueOrDie();
  auto ws = g.OutWeights(0);
  EXPECT_DOUBLE_EQ(ws[0], 10.0);
  EXPECT_DOUBLE_EQ(ws[1], 20.0);
  EXPECT_DOUBLE_EQ(g.OutWeightSum(0), 30.0);
}

TEST(CsrGraphTest, UndirectedSymmetrizes) {
  EdgeList el(3);
  el.Add(0, 1);
  CsrOptions opts;
  opts.directed = false;
  auto g = CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
  EXPECT_EQ(g.num_edges(), 2u);  // both arcs stored
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_EQ(g.InDegree(0), 1u);  // aliases out
}

TEST(CsrGraphTest, InEdgesBuiltOnRequest) {
  EdgeList el(3);
  el.Add(0, 2);
  el.Add(1, 2);
  CsrOptions opts;
  opts.build_in_edges = true;
  auto g = CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
  EXPECT_EQ(g.InDegree(2), 2u);
  auto in = g.InNeighbors(2);
  EXPECT_EQ(in[0], 0u);
  EXPECT_EQ(in[1], 1u);
  EXPECT_EQ(g.InDegree(0), 0u);
}

TEST(CsrGraphTest, DeduplicateAndLoopRemovalOptions) {
  EdgeList el(3);
  el.Add(0, 1);
  el.Add(0, 1);
  el.Add(1, 1);
  CsrOptions opts;
  opts.deduplicate = true;
  opts.remove_self_loops = true;
  auto g = CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(CsrGraphTest, RoundTripThroughEdgeList) {
  EdgeList el(5);
  el.Add(0, 4, 2.5);
  el.Add(3, 1);
  auto g = CsrGraph::FromEdges(std::move(el)).ValueOrDie();
  EdgeList back = g.ToEdgeList();
  EXPECT_EQ(back.num_vertices(), 5u);
  EXPECT_EQ(back.num_edges(), 2u);
  auto g2 = CsrGraph::FromEdges(std::move(back)).ValueOrDie();
  EXPECT_TRUE(g2.HasEdge(0, 4));
  EXPECT_TRUE(g2.HasEdge(3, 1));
}

TEST(CsrGraphTest, InvalidEdgeListRejected) {
  EdgeList el(1);
  el.mutable_edges().push_back(Edge{0, 9, 1.0});
  auto g = CsrGraph::FromEdges(std::move(el));
  EXPECT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsInvalid());
}

TEST(CsrGraphTest, EmptyGraph) {
  auto g = CsrGraph::FromEdges(EdgeList{}).ValueOrDie();
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.MaxOutDegree(), 0u);
}

TEST(CsrGraphTest, FromPairsConvenience) {
  auto g = CsrGraph::FromPairs(3, {{0, 1}, {1, 2}}).ValueOrDie();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(CsrGraphTest, MaxOutDegree) {
  auto g = CsrGraph::FromPairs(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}}).ValueOrDie();
  EXPECT_EQ(g.MaxOutDegree(), 3u);
}

// --- Unit-weight graphs store no weight array --------------------------------

/// Seeded RMAT multigraph (loops, repeats, isolated vertices) with every
/// weight 1.0. Scale 14 is large enough for delta-stepping to fork rounds.
EdgeList UnitWeightEdges(uint32_t scale) {
  Rng rng(31);
  return gen::Rmat(scale, uint64_t{8} << scale, &rng).ValueOrDie();
}

void ExpectUnitOutWeights(const CsrGraph& g) {
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto ws = g.OutWeights(v);
    ASSERT_EQ(ws.size(), g.OutDegree(v)) << v;
    for (double w : ws) ASSERT_EQ(w, 1.0) << v;
  }
  const EdgeList el = g.ToEdgeList();
  for (const Edge& e : el.edges()) ASSERT_EQ(e.weight, 1.0);
}

TEST(CsrGraphTest, UnitWeightsStoreNoWeightArray) {
  for (bool directed : {true, false}) {
    CsrOptions opts;
    opts.directed = directed;
    opts.build_in_edges = directed;
    const CsrGraph g = CsrGraph::FromEdges(UnitWeightEdges(9), opts).ValueOrDie();
    ASSERT_GT(g.num_edges(), 0u);
    EXPECT_TRUE(g.weights().empty()) << directed;
    ExpectUnitOutWeights(g);
    EXPECT_EQ(g.ToEdgeList().num_edges(), g.num_edges());

    std::vector<VertexId> reversed(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      reversed[v] = g.num_vertices() - 1 - v;
    }
    for (bool sort : {false, true}) {
      PermuteOptions popts;
      popts.sort_neighbors = sort;
      popts.num_threads = 4;
      const CsrGraph p = g.Permute(reversed, popts).ValueOrDie().graph;
      EXPECT_TRUE(p.weights().empty()) << directed << sort;
      ExpectUnitOutWeights(p);
      EXPECT_EQ(p.ToEdgeList().num_edges(), g.num_edges());
    }
  }
}

TEST(CsrGraphTest, OneOtherWeightKeepsTheWeightArray) {
  EdgeList el = UnitWeightEdges(9);
  // The last edge: the unit check must look at every weight.
  Edge& heavy = el.mutable_edges().back();
  heavy.weight = 2.5;
  const VertexId src = heavy.src;
  const CsrGraph g = CsrGraph::FromEdges(el).ValueOrDie();
  ASSERT_EQ(g.weights().size(), g.num_edges());
  EXPECT_EQ(std::count(g.weights().begin(), g.weights().end(), 2.5), 1);
  EXPECT_EQ(std::count(g.weights().begin(), g.weights().end(), 1.0),
            static_cast<ptrdiff_t>(g.num_edges() - 1));
  const auto ws = g.OutWeights(src);
  EXPECT_EQ(std::count(ws.begin(), ws.end(), 2.5), 1);

  std::vector<VertexId> identity(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) identity[v] = v;
  const CsrGraph p = g.Permute(identity).ValueOrDie().graph;
  EXPECT_EQ(p.weights(), g.weights());
}

TEST(CsrGraphTest, UnitWeightShortestPathsAndMstMatchDoubledWeights) {
  const EdgeList unit = UnitWeightEdges(14);
  EdgeList twos = unit;
  for (Edge& e : twos.mutable_edges()) e.weight = 2.0;
  for (bool directed : {true, false}) {
    CsrOptions opts;
    opts.directed = directed;
    const CsrGraph g1 = CsrGraph::FromEdges(unit, opts).ValueOrDie();
    const CsrGraph g2 = CsrGraph::FromEdges(twos, opts).ValueOrDie();
    ASSERT_TRUE(g1.weights().empty());
    ASSERT_EQ(g2.weights().size(), g2.num_edges());
    VertexId source = 0;
    for (VertexId v = 0; v < g1.num_vertices(); ++v) {
      if (g1.OutDegree(v) > g1.OutDegree(source)) source = v;
    }
    auto expect_half = [&](const algo::ShortestPathTree& a,
                           const algo::ShortestPathTree& b, const char* what,
                           unsigned threads) {
      ASSERT_EQ(a.distance.size(), b.distance.size());
      for (size_t v = 0; v < a.distance.size(); ++v) {
        ASSERT_EQ(std::bit_cast<uint64_t>(a.distance[v]),
                  std::bit_cast<uint64_t>(b.distance[v] / 2))
            << what << " threads=" << threads << " directed=" << directed << " v=" << v;
      }
      EXPECT_EQ(a.parent, b.parent) << what << " threads=" << threads;
    };
    expect_half(algo::Dijkstra(g1, source).ValueOrDie(),
                algo::Dijkstra(g2, source).ValueOrDie(), "dijkstra", 1);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      algo::SsspOptions sopts;
      sopts.num_threads = threads;
      const int64_t forked = obs::CounterValue("sssp.delta.forked_rounds");
      expect_half(algo::DeltaSteppingSssp(g1, source, sopts).ValueOrDie(),
                  algo::DeltaSteppingSssp(g2, source, sopts).ValueOrDie(),
                  "delta-stepping", threads);
      // The parallel relax loop ran on both graphs.
      if (threads > 1) {
        EXPECT_GE(obs::CounterValue("sssp.delta.forked_rounds") - forked, 2);
      }
    }

    auto same_edges = [&](const algo::MstResult& a, const algo::MstResult& b,
                          const char* what) {
      ASSERT_EQ(a.edges.size(), b.edges.size()) << what;
      for (size_t i = 0; i < a.edges.size(); ++i) {
        EXPECT_EQ(a.edges[i].src, b.edges[i].src) << what << " " << i;
        EXPECT_EQ(a.edges[i].dst, b.edges[i].dst) << what << " " << i;
      }
      EXPECT_EQ(2 * a.total_weight, b.total_weight) << what;
      EXPECT_EQ(a.num_trees, b.num_trees) << what;
    };
    same_edges(algo::MinimumSpanningForestKruskal(g1),
               algo::MinimumSpanningForestKruskal(g2), "kruskal");
    same_edges(algo::MinimumSpanningForestPrim(g1),
               algo::MinimumSpanningForestPrim(g2), "prim");
  }
}

TEST(DynamicGraphTest, AddRemoveEdges) {
  DynamicGraph g(3);
  auto e1 = g.AddEdge(0, 1);
  ASSERT_TRUE(e1.ok());
  auto e2 = g.AddEdge(0, 1);  // parallel allowed
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.EdgeMultiplicity(0, 1), 2u);
  EXPECT_TRUE(g.RemoveEdge(*e1).ok());
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.EdgeMultiplicity(0, 1), 1u);
  // Double-remove fails.
  EXPECT_TRUE(g.RemoveEdge(*e1).IsNotFound());
}

TEST(DynamicGraphTest, SimpleGraphRejectsParallel) {
  DynamicGraph g(2, /*allow_multi_edges=*/false);
  ASSERT_TRUE(g.AddEdge(0, 1).ok());
  auto dup = g.AddEdge(0, 1);
  EXPECT_TRUE(dup.status().IsAlreadyExists());
}

TEST(DynamicGraphTest, DegreesTrackLiveEdges) {
  DynamicGraph g(3);
  auto e = g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(0, 2).ValueOrDie();
  g.AddEdge(2, 0).ValueOrDie();
  EXPECT_EQ(g.OutDegree(0), 2u);
  EXPECT_EQ(g.InDegree(0), 1u);
  ASSERT_TRUE(g.RemoveEdge(e).ok());
  EXPECT_EQ(g.OutDegree(0), 1u);
  EXPECT_EQ(g.InDegree(1), 0u);
}

TEST(DynamicGraphTest, RemoveVertexEdges) {
  DynamicGraph g(3);
  g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(1, 2).ValueOrDie();
  g.AddEdge(2, 1).ValueOrDie();
  ASSERT_TRUE(g.RemoveVertexEdges(1).ok());
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(DynamicGraphTest, RemoveEdgeBetween) {
  DynamicGraph g(2);
  g.AddEdge(0, 1).ValueOrDie();
  EXPECT_TRUE(g.RemoveEdgeBetween(0, 1).ok());
  EXPECT_TRUE(g.RemoveEdgeBetween(0, 1).IsNotFound());
}

TEST(DynamicGraphTest, GetEdgeAndSetWeight) {
  DynamicGraph g(2);
  EdgeId e = g.AddEdge(0, 1, 5.0).ValueOrDie();
  auto view = g.GetEdge(e);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->weight, 5.0);
  ASSERT_TRUE(g.SetWeight(e, 7.0).ok());
  EXPECT_EQ(g.GetEdge(e)->weight, 7.0);
}

TEST(DynamicGraphTest, CompactReclaimsTombstones) {
  DynamicGraph g(3);
  EdgeId e1 = g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(1, 2).ValueOrDie();
  g.RemoveEdge(e1).Abort();
  uint64_t reclaimed = g.Compact();
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.OutDegree(1), 1u);
  EXPECT_EQ(g.OutDegree(0), 0u);
}

TEST(DynamicGraphTest, ToEdgeListSkipsRemoved) {
  DynamicGraph g(3);
  EdgeId e1 = g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(1, 2).ValueOrDie();
  g.RemoveEdge(e1).Abort();
  EdgeList el = g.ToEdgeList();
  EXPECT_EQ(el.num_edges(), 1u);
  EXPECT_EQ(el.edges()[0].src, 1u);
}

TEST(DynamicGraphTest, AddVertexExtendsRange) {
  DynamicGraph g(1);
  VertexId v = g.AddVertex();
  EXPECT_EQ(v, 1u);
  EXPECT_TRUE(g.AddEdge(0, v).ok());
  EXPECT_TRUE(g.AddEdge(0, 5).status().IsOutOfRange());
}

TEST(DynamicGraphTest, ForEachVisitsOnlyLive) {
  DynamicGraph g(3);
  EdgeId e1 = g.AddEdge(0, 1).ValueOrDie();
  g.AddEdge(0, 2).ValueOrDie();
  g.RemoveEdge(e1).Abort();
  int count = 0;
  g.ForEachOutEdge(0, [&](EdgeId, VertexId dst, double) {
    EXPECT_EQ(dst, 2u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(PropertyGraphTest, LabelsAndTypes) {
  PropertyGraph g;
  VertexId a = g.AddVertex("person");
  VertexId b = g.AddVertex("product");
  EdgeId e = g.AddEdge(a, b, "bought").ValueOrDie();
  EXPECT_EQ(g.VertexLabel(a), "person");
  EXPECT_EQ(g.VertexLabel(b), "product");
  EXPECT_EQ(g.EdgeType(e), "bought");
  EXPECT_EQ(g.EdgeSrc(e), a);
  EXPECT_EQ(g.EdgeDst(e), b);
}

TEST(PropertyGraphTest, AllPropertyTypes) {
  PropertyGraph g;
  VertexId v = g.AddVertex("item");
  ASSERT_TRUE(g.SetVertexProperty(v, "name", std::string("widget")).ok());
  ASSERT_TRUE(g.SetVertexProperty(v, "price", 9.99).ok());
  ASSERT_TRUE(g.SetVertexProperty(v, "stock", static_cast<int64_t>(5)).ok());
  ASSERT_TRUE(g.SetVertexProperty(v, "active", true).ok());
  ASSERT_TRUE(g.SetVertexProperty(v, "created", Timestamp{1234}).ok());
  ASSERT_TRUE(g.SetVertexProperty(v, "blob", Bytes{1, 2, 3}).ok());
  EXPECT_EQ(std::get<std::string>(g.GetVertexProperty(v, "name")), "widget");
  EXPECT_EQ(std::get<double>(g.GetVertexProperty(v, "price")), 9.99);
  EXPECT_EQ(std::get<int64_t>(g.GetVertexProperty(v, "stock")), 5);
  EXPECT_EQ(std::get<bool>(g.GetVertexProperty(v, "active")), true);
  EXPECT_EQ(std::get<Timestamp>(g.GetVertexProperty(v, "created")).millis, 1234);
  EXPECT_EQ(std::get<Bytes>(g.GetVertexProperty(v, "blob")).size(), 3u);
  EXPECT_EQ(g.VertexProperties(v).size(), 6u);
}

TEST(PropertyGraphTest, MissingPropertyIsMonostate) {
  PropertyGraph g;
  VertexId v = g.AddVertex("x");
  EXPECT_TRUE(std::holds_alternative<std::monostate>(
      g.GetVertexProperty(v, "nothing")));
}

TEST(PropertyGraphTest, OverwriteProperty) {
  PropertyGraph g;
  VertexId v = g.AddVertex("x");
  g.SetVertexProperty(v, "k", static_cast<int64_t>(1)).Abort();
  g.SetVertexProperty(v, "k", static_cast<int64_t>(2)).Abort();
  EXPECT_EQ(std::get<int64_t>(g.GetVertexProperty(v, "k")), 2);
  EXPECT_EQ(g.VertexProperties(v).size(), 1u);
}

TEST(PropertyGraphTest, EdgePropertiesAndTypedOutEdges) {
  PropertyGraph g;
  VertexId a = g.AddVertex("n");
  VertexId b = g.AddVertex("n");
  EdgeId knows = g.AddEdge(a, b, "knows").ValueOrDie();
  g.AddEdge(a, b, "likes").ValueOrDie();
  g.SetEdgeProperty(knows, "since", static_cast<int64_t>(2015)).Abort();
  EXPECT_EQ(std::get<int64_t>(g.GetEdgeProperty(knows, "since")), 2015);
  EXPECT_EQ(g.OutEdges(a).size(), 2u);
  EXPECT_EQ(g.OutEdges(a, "knows").size(), 1u);
  EXPECT_EQ(g.InEdges(b, "likes").size(), 1u);
  EXPECT_EQ(g.OutEdges(a, "nosuch").size(), 0u);
}

TEST(PropertyGraphTest, VerticesWithLabel) {
  PropertyGraph g;
  g.AddVertex("a");
  g.AddVertex("b");
  g.AddVertex("a");
  EXPECT_EQ(g.VerticesWithLabel("a").size(), 2u);
  EXPECT_EQ(g.VerticesWithLabel("zzz").size(), 0u);
}

TEST(PropertyGraphTest, ToEdgeListUsesWeightProperty) {
  PropertyGraph g;
  VertexId a = g.AddVertex("n");
  VertexId b = g.AddVertex("n");
  EdgeId e = g.AddEdge(a, b, "t").ValueOrDie();
  g.SetEdgeProperty(e, "weight", 4.5).Abort();
  EdgeList el = g.ToEdgeList();
  ASSERT_EQ(el.num_edges(), 1u);
  EXPECT_DOUBLE_EQ(el.edges()[0].weight, 4.5);
}

TEST(PropertyGraphTest, OutOfRangeEdgeRejected) {
  PropertyGraph g;
  g.AddVertex("n");
  EXPECT_TRUE(g.AddEdge(0, 5, "t").status().IsOutOfRange());
}

TEST(StringDictionaryTest, InternIsIdempotent) {
  StringDictionary dict;
  uint32_t a = dict.Intern("x");
  uint32_t b = dict.Intern("x");
  uint32_t c = dict.Intern("y");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(dict.Name(a), "x");
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_FALSE(dict.Lookup("zzz").has_value());
}

}  // namespace
}  // namespace ubigraph
