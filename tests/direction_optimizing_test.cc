// Differential tests for the direction-optimizing layer: hybrid BFS vs the
// exact-serial push oracle, PageRank mode equivalence, parallel CC vs
// union-find, in-edge Status contracts, and bitwise-identical parallel CSR
// builds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/connected_components.h"
#include "algorithms/pagerank.h"
#include "algorithms/traversal.h"
#include "common/parallel.h"
#include "common/random.h"
#include "components_oracle.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "graph/frontier.h"
#include "stream/incremental_pagerank.h"

namespace ubigraph {
namespace {

using algo::HybridBfsOptions;
using algo::TraversalDirection;

constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};

CsrGraph Build(EdgeList el, bool directed, bool in_edges) {
  CsrOptions opts;
  opts.directed = directed;
  opts.build_in_edges = in_edges;
  return CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
}

/// Corpus spanning the regimes that exercise both directions: a scale-free
/// directed graph, a sparse undirected one, a disconnected one, a star
/// (one pull-heavy round), and a path (push forever).
std::vector<std::pair<std::string, CsrGraph>> TestGraphs() {
  std::vector<std::pair<std::string, CsrGraph>> graphs;
  Rng rmat_rng(7);
  graphs.emplace_back(
      "rmat_directed",
      Build(gen::Rmat(10, 8 << 10, &rmat_rng).ValueOrDie(), true, true));
  Rng er_rng(11);
  graphs.emplace_back(
      "er_undirected",
      Build(gen::ErdosRenyi(500, 900, &er_rng).ValueOrDie(), false, false));
  // Two components plus isolated vertices 9 and 10.
  EdgeList two(11);
  for (VertexId v = 1; v < 5; ++v) two.Add(0, v);
  for (VertexId v = 6; v < 9; ++v) two.Add(5, v);
  graphs.emplace_back("disconnected", Build(std::move(two), true, true));
  graphs.emplace_back("star", Build(gen::Star(600), false, false));
  graphs.emplace_back("path", Build(gen::Path(400), false, false));
  return graphs;
}

VertexId HighDegreeVertex(const CsrGraph& g) {
  VertexId best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(best)) best = v;
  }
  return best;
}

TEST(HybridBfsTest, MatchesSerialPushAcrossModesAndThreads) {
  for (const auto& [name, g] : TestGraphs()) {
    for (VertexId source : {VertexId{0}, HighDegreeVertex(g)}) {
      std::vector<uint32_t> oracle = algo::BfsDistances(g, source);
      for (TraversalDirection dir : {TraversalDirection::kPush,
                                     TraversalDirection::kPull,
                                     TraversalDirection::kAuto}) {
        for (uint32_t threads : kThreadCounts) {
          HybridBfsOptions opts;
          opts.direction = dir;
          opts.num_threads = threads;
          auto dist = algo::HybridBfs(g, source, opts).ValueOrDie();
          EXPECT_EQ(dist, oracle)
              << name << " source=" << source << " dir=" << static_cast<int>(dir)
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(HybridBfsTest, ForcedDirectionsOnExtremeTopologies) {
  // A star pulled from the hub finishes in one pull round; a path pushed
  // from one end is the worst case for pull. Both must still be exact.
  auto star = Build(gen::Star(600), false, false);
  auto path = Build(gen::Path(400), false, false);
  HybridBfsOptions pull;
  pull.direction = TraversalDirection::kPull;
  EXPECT_EQ(algo::HybridBfs(star, 0, pull).ValueOrDie(),
            algo::BfsDistances(star, 0));
  HybridBfsOptions push;
  push.direction = TraversalDirection::kPush;
  EXPECT_EQ(algo::HybridBfs(path, 0, push).ValueOrDie(),
            algo::BfsDistances(path, 0));
}

TEST(HybridBfsTest, MultiSourceMatchesSerialOracle) {
  for (const auto& [name, g] : TestGraphs()) {
    std::vector<VertexId> sources = {0, g.num_vertices() / 2,
                                     g.num_vertices() - 1, 0 /* duplicate */};
    std::vector<uint32_t> oracle = algo::MultiSourceBfs(g, sources);
    for (uint32_t threads : kThreadCounts) {
      HybridBfsOptions opts;
      opts.num_threads = threads;
      EXPECT_EQ(algo::HybridMultiSourceBfs(g, sources, opts).ValueOrDie(),
                oracle)
          << name << " threads=" << threads;
    }
  }
}

TEST(HybridBfsTest, OutOfRangeSourceIsAllUnreachable) {
  auto g = Build(gen::Path(5), false, false);
  auto dist = algo::HybridBfs(g, 99).ValueOrDie();
  for (uint32_t d : dist) EXPECT_EQ(d, algo::kUnreachable);
}

TEST(HybridBfsTest, InvalidAlphaBetaRejected) {
  auto g = Build(gen::Path(5), false, false);
  HybridBfsOptions opts;
  opts.alpha = 0;
  EXPECT_FALSE(algo::HybridBfs(g, 0, opts).ok());
  opts.alpha = 15.0;
  opts.beta = -1;
  EXPECT_FALSE(algo::HybridBfs(g, 0, opts).ok());
}

TEST(InEdgeContractTest, DirectedWithoutInIndexFailsWithClearStatus) {
  // Directed CSR without build_in_edges: every pull-capable kernel must fail
  // with an actionable InvalidArgument instead of reading garbage.
  auto g = Build(gen::Path(6), true, false);
  ASSERT_FALSE(g.has_in_edges());

  auto hybrid = algo::HybridBfs(g, 0);
  ASSERT_FALSE(hybrid.ok());
  EXPECT_NE(hybrid.status().message().find("build_in_edges"), std::string::npos);
  HybridBfsOptions pull;
  pull.direction = TraversalDirection::kPull;
  EXPECT_FALSE(algo::HybridBfs(g, 0, pull).ok());
  // Forced push needs no in-edges.
  HybridBfsOptions push;
  push.direction = TraversalDirection::kPush;
  EXPECT_EQ(algo::HybridBfs(g, 0, push).ValueOrDie(), algo::BfsDistances(g, 0));

  algo::PageRankOptions pr;
  pr.mode = algo::PageRankMode::kPull;
  EXPECT_FALSE(algo::PageRank(g, pr).ok());
  pr.mode = algo::PageRankMode::kPush;
  EXPECT_TRUE(algo::PageRank(g, pr).ok());

  EXPECT_FALSE(algo::ConnectedComponentsLabelProp(g).ok());
  EXPECT_FALSE(oracle::ConnectedComponentsBfs(g).ok());
}

TEST(PageRankModeTest, AutoResolvesByInEdgeAvailability) {
  auto with_in = Build(gen::Path(6), true, true);
  auto without = Build(gen::Path(6), true, false);
  EXPECT_EQ(algo::PageRank(with_in).ValueOrDie().mode,
            algo::PageRankMode::kPull);
  EXPECT_EQ(algo::PageRank(without).ValueOrDie().mode,
            algo::PageRankMode::kPush);
}

TEST(PageRankModeTest, ModesAgreeWithinTolerance) {
  for (const auto& [name, g] : TestGraphs()) {
    algo::PageRankOptions base;
    base.tolerance = 1e-12;
    base.max_iterations = 200;
    base.mode = algo::PageRankMode::kPull;
    auto pull = algo::PageRank(g, base).ValueOrDie();
    algo::PageRankOptions opts = base;
    opts.mode = algo::PageRankMode::kPush;
    auto push = algo::PageRank(g, opts).ValueOrDie();
    EXPECT_EQ(push.mode, algo::PageRankMode::kPush);
    ASSERT_EQ(push.scores.size(), pull.scores.size());
    for (size_t v = 0; v < pull.scores.size(); ++v) {
      EXPECT_NEAR(push.scores[v], pull.scores[v], 1e-8) << name << " v=" << v;
    }
  }
}

TEST(PageRankModeTest, ParallelRunsAreDeterministicPerMode) {
  for (const auto& [name, g] : TestGraphs()) {
    for (algo::PageRankMode mode :
         {algo::PageRankMode::kPull, algo::PageRankMode::kPush}) {
      algo::PageRankOptions serial;
      serial.mode = mode;
      serial.max_iterations = 30;
      serial.tolerance = 1e-10;
      auto oracle = algo::PageRank(g, serial).ValueOrDie();
      for (uint32_t threads : {2u, 4u}) {
        algo::PageRankOptions opts = serial;
        opts.num_threads = threads;
        auto a = algo::PageRank(g, opts).ValueOrDie();
        auto b = algo::PageRank(g, opts).ValueOrDie();
        // Bitwise-reproducible at a fixed thread count...
        EXPECT_EQ(a.scores, b.scores)
            << name << " mode=" << static_cast<int>(mode)
            << " threads=" << threads;
        // ...and, for pull, identical to the serial path; push merges
        // per-worker arrays, so it lands within tolerance of it.
        if (mode == algo::PageRankMode::kPull) {
          EXPECT_EQ(a.scores, oracle.scores)
              << name << " threads=" << threads;
          EXPECT_EQ(a.iterations, oracle.iterations)
              << name << " threads=" << threads;
          continue;
        }
        for (size_t v = 0; v < oracle.scores.size(); ++v) {
          EXPECT_NEAR(a.scores[v], oracle.scores[v], 1e-9)
              << name << " mode=" << static_cast<int>(mode)
              << " threads=" << threads << " v=" << v;
        }
      }
    }
  }
}

// algo::PageRank's pull mode and the stream engine's cold start run the same
// sweep kernel (algo::PullSweeps) over the same ascending in-rows, so their
// scores and sweep counts agree bitwise at every thread count of either.
// RMAT-14 has 2^17 arcs, enough for the sweeps to fork; RMAT-11 sweeps on the
// caller.
TEST(PageRankModeTest, PullMatchesStreamEngineBitwiseAtEveryThreadCount) {
  for (uint32_t scale : {11u, 14u}) {
    Rng rng(scale);
    const EdgeList el =
        gen::Rmat(scale, uint64_t{8} << scale, &rng).ValueOrDie();
    const CsrGraph g = Build(el, true, true);
    ASSERT_EQ(g.num_edges() >= kSerialPassArcs, scale == 14);
    for (uint32_t threads : kThreadCounts) {
      const auto stream =
          stream::IncrementalPageRank::Create(
              el, {.tolerance = 1e-10, .max_sweeps = 100, .num_threads = threads})
              .ValueOrDie();
      ASSERT_TRUE(stream.initial_result().converged) << "scale=" << scale;
      algo::PageRankOptions opts;
      opts.tolerance = 1e-10;
      opts.max_iterations = 100;
      opts.mode = algo::PageRankMode::kPull;
      opts.num_threads = threads;
      const auto pull = algo::PageRank(g, opts).ValueOrDie();
      EXPECT_EQ(pull.scores, stream.scores())
          << "scale=" << scale << " threads=" << threads;
      EXPECT_EQ(pull.iterations, stream.initial_result().sweeps)
          << "scale=" << scale << " threads=" << threads;
    }
  }
}

TEST(FrontierCcTest, MatchesUnionFindAcrossThreads) {
  for (const auto& [name, g] : TestGraphs()) {
    algo::ComponentResult oracle = algo::WeaklyConnectedComponents(g);
    for (uint32_t threads : kThreadCounts) {
      algo::ComponentsOptions opts;
      opts.num_threads = threads;
      auto cc = algo::ConnectedComponentsLabelProp(g, opts).ValueOrDie();
      EXPECT_EQ(cc.label, oracle.label) << name << " threads=" << threads;
      EXPECT_EQ(cc.num_components, oracle.num_components)
          << name << " threads=" << threads;
    }
  }
}

TEST(FrontierTest, RepresentationConversionsRoundTrip) {
  Frontier f(130);  // spans three bitmap words with a ragged tail
  f.Push(0);
  f.Push(64);
  f.Push(129);
  EXPECT_EQ(f.size(), 3u);
  f.ToDense();
  EXPECT_TRUE(f.dense());
  EXPECT_TRUE(f.Test(0));
  EXPECT_TRUE(f.Test(64));
  EXPECT_TRUE(f.Test(129));
  EXPECT_FALSE(f.Test(1));
  f.ToSparse();
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f.Vertices()[0], 0u);
  EXPECT_EQ(f.Vertices()[1], 64u);
  EXPECT_EQ(f.Vertices()[2], 129u);

  f.ClearDense();
  EXPECT_TRUE(f.empty());
  EXPECT_TRUE(f.AtomicTestAndSet(129));
  EXPECT_FALSE(f.AtomicTestAndSet(129));  // already set
  f.RecountDense();
  EXPECT_EQ(f.size(), 1u);

  f.SetAll();
  EXPECT_EQ(f.size(), 130u);
  f.ToSparse();
  EXPECT_EQ(f.size(), 130u);  // tail bits past the universe never leak
  EXPECT_EQ(f.Vertices().back(), 129u);
}

/// Inputs for the CSR build differentials. Every build runs the same
/// chunked counting sort, so the cases target chunk boundaries: a skewed
/// RMAT graph with distinguishable weights (scatter-order bugs show up), far
/// more vertices than edges (most chunk rows stay zero), no edges at all,
/// and repeated (src, dst) pairs whose weights only the stable order tells
/// apart.
std::vector<std::pair<std::string, EdgeList>> CsrBuildInputs() {
  std::vector<std::pair<std::string, EdgeList>> inputs;
  Rng rng(21);
  EdgeList rmat = gen::Rmat(11, 8 << 11, &rng).ValueOrDie();
  for (size_t i = 0; i < rmat.mutable_edges().size(); ++i) {
    rmat.mutable_edges()[i].weight = static_cast<double>(i % 97) + 0.5;
  }
  inputs.emplace_back("rmat11", std::move(rmat));
  EdgeList sparse(50000);
  for (uint32_t i = 0; i < 40; ++i) {
    sparse.Add(static_cast<VertexId>(rng.NextBounded(50000)),
               static_cast<VertexId>(rng.NextBounded(50000)), 1.0 + i);
  }
  inputs.emplace_back("v_much_greater_than_e", std::move(sparse));
  inputs.emplace_back("empty", EdgeList());
  inputs.emplace_back("isolated_vertices_only", EdgeList(1000));
  EdgeList dups(6);
  for (uint32_t i = 0; i < 300; ++i) {
    const VertexId u = static_cast<VertexId>(i % 3), v = static_cast<VertexId>(3 + i % 2);
    dups.Add(u, v, static_cast<double>(300 - i));
    if (i % 7 == 0) dups.Add(u, u, -static_cast<double>(i));  // self-loops too
  }
  inputs.emplace_back("duplicate_pairs_distinct_weights", std::move(dups));
  return inputs;
}

struct CsrBuildConfig {
  const char* name;
  bool directed, in_edges, sort;
};

constexpr CsrBuildConfig kCsrBuildConfigs[] = {
    {"directed_sorted", true, false, true},
    {"directed_in_sorted", true, true, true},
    {"directed_in_unsorted", true, true, false},
    {"directed_unsorted", true, false, false},
    {"undirected_sorted", false, false, true},
    {"undirected_unsorted", false, false, false},
};

CsrGraph BuildWith(const EdgeList& el, const CsrBuildConfig& c, uint32_t threads) {
  CsrOptions opts;
  opts.directed = c.directed;
  opts.build_in_edges = c.in_edges;
  opts.sort_neighbors = c.sort;
  opts.num_threads = threads;
  // These inputs sit below the serial-fallback cutoff; keep every chunk so
  // the differential is real.
  opts.min_parallel_edges = 0;
  return CsrGraph::FromEdges(el, opts).ValueOrDie();
}

/// Builds at 2/3/4/8 threads must be bitwise-identical to the one-chunk
/// build: same offsets, targets, weights, and in-edge index.
TEST(ParallelCsrBuildTest, BitwiseIdenticalToSerial) {
  for (const auto& [input, el] : CsrBuildInputs()) {
    for (const CsrBuildConfig& c : kCsrBuildConfigs) {
      const CsrGraph serial = BuildWith(el, c, 1);
      for (uint32_t threads : {2u, 3u, 4u, 8u}) {
        const CsrGraph parallel = BuildWith(el, c, threads);
        const std::string where =
            input + " " + c.name + " threads=" + std::to_string(threads);
        ASSERT_EQ(parallel.num_vertices(), serial.num_vertices()) << where;
        EXPECT_EQ(parallel.offsets(), serial.offsets()) << where;
        EXPECT_EQ(parallel.targets(), serial.targets()) << where;
        EXPECT_EQ(parallel.weights(), serial.weights()) << where;
        ASSERT_EQ(parallel.has_in_edges(), serial.has_in_edges()) << where;
        if (serial.has_in_edges() && serial.directed()) {
          for (VertexId v = 0; v < serial.num_vertices(); ++v) {
            auto a = parallel.InNeighbors(v);
            auto b = serial.InNeighbors(v);
            ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
                << where << " v=" << v;
          }
        }
      }
    }
  }
}

/// The one-chunk build against an independent adjacency-list oracle: each
/// vertex's arcs in edge-list order (an undirected edge's reverse arc right
/// after its forward twin), and when sorted, ordered by (target, weight).
TEST(ParallelCsrBuildTest, MatchesAdjacencyListOracle) {
  for (const auto& [input, el] : CsrBuildInputs()) {
    for (const CsrBuildConfig& c : kCsrBuildConfigs) {
      const VertexId n = el.num_vertices();
      std::vector<std::vector<std::pair<VertexId, double>>> out(n), in(n);
      for (const Edge& e : el.edges()) {
        out[e.src].emplace_back(e.dst, e.weight);
        if (!c.directed && e.src != e.dst) out[e.dst].emplace_back(e.src, e.weight);
        in[e.dst].emplace_back(e.src, e.weight);
      }
      for (uint32_t threads : {1u, 3u}) {
        const CsrGraph g = BuildWith(el, c, threads);
        const std::string where =
            input + " " + c.name + " threads=" + std::to_string(threads);
        ASSERT_EQ(g.num_vertices(), n) << where;
        for (VertexId v = 0; v < n; ++v) {
          auto want = out[v];
          auto want_in = in[v];
          if (c.sort) {
            std::sort(want.begin(), want.end());
            std::sort(want_in.begin(), want_in.end());
          }
          auto nbrs = g.OutNeighbors(v);
          auto ws = g.OutWeights(v);
          ASSERT_EQ(nbrs.size(), want.size()) << where << " v=" << v;
          for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(nbrs[i], want[i].first) << where << " v=" << v;
            EXPECT_EQ(ws[i], want[i].second) << where << " v=" << v;
          }
          if (c.directed && c.in_edges) {
            auto in_nbrs = g.InNeighbors(v);
            ASSERT_EQ(in_nbrs.size(), want_in.size()) << where << " v=" << v;
            for (size_t i = 0; i < want_in.size(); ++i) {
              EXPECT_EQ(in_nbrs[i], want_in[i].first) << where << " v=" << v;
            }
          }
        }
      }
    }
  }
}

TEST(ParallelCsrBuildTest, FromPairsMatchesFromEdges) {
  std::vector<std::pair<VertexId, VertexId>> pairs = {
      {0, 3}, {3, 1}, {1, 0}, {2, 2}, {4, 0}};
  auto a = CsrGraph::FromPairs(5, pairs).ValueOrDie();
  EdgeList el(5);
  for (auto [u, v] : pairs) el.Add(u, v);
  auto b = CsrGraph::FromEdges(std::move(el)).ValueOrDie();
  EXPECT_EQ(a.offsets(), b.offsets());
  EXPECT_EQ(a.targets(), b.targets());
  EXPECT_EQ(a.weights(), b.weights());
}

}  // namespace
}  // namespace ubigraph
