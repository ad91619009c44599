// Differential tests for the priority-bucket kernels: delta-stepping SSSP
// against the Dijkstra oracle (bitwise distances on non-negative weights),
// parallel Brandes/closeness against the serial accumulation (bitwise — the
// source chunking and combine tree are worker-count-independent), and
// bucketed parallel k-core peeling against Batagelj-Zaversnik (core numbers
// are a structural invariant), each at 1/2/4/8 threads, plus permuted and
// compressed-graph variants mirroring locality_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "algorithms/centrality.h"
#include "algorithms/kcore.h"
#include "algorithms/shortest_path.h"
#include "common/buckets.h"
#include "common/parallel.h"
#include "common/random.h"
#include "gen/generators.h"
#include "graph/compressed_csr.h"
#include "graph/csr_graph.h"
#include "graph/ordering.h"
#include "obs/metrics.h"

namespace ubigraph {
namespace {

using algo::ApproxBetweennessCentrality;
using algo::BetweennessCentrality;
using algo::CentralityOptions;
using algo::ClosenessCentrality;
using algo::CoreDecomposition;
using algo::CoreOptions;
using algo::DeltaSteppingSssp;
using algo::Dijkstra;
using algo::HarmonicCloseness;
using algo::kInfDistance;
using algo::ShortestPathTree;
using algo::SsspOptions;

constexpr uint32_t kThreadCounts[] = {1, 2, 4, 8};

/// Directed RMAT (2^scale vertices, 8 edges per vertex) plus a ring through
/// every vertex, with `weight(rng)` on every edge — by default uniform in
/// [0.1, 1.1): connected from any root, no zero weights (so the
/// shortest-path DAG has no ties through zero-weight edges, the common case
/// the parent post-pass is optimized for).
template <typename WeightFn>
CsrGraph WeightedRmat(uint32_t scale, WeightFn weight) {
  Rng rng(scale * 104729ULL + 7);
  EdgeList el =
      gen::Rmat(scale, static_cast<uint64_t>(8) << scale, &rng).ValueOrDie();
  const VertexId n = el.num_vertices();
  for (VertexId v = 0; v < n; ++v) el.Add(v, (v + 1) % n);
  for (Edge& e : el.mutable_edges()) e.weight = weight(rng);
  return CsrGraph::FromEdges(std::move(el), CsrOptions{}).ValueOrDie();
}

CsrGraph WeightedRmat(uint32_t scale) {
  return WeightedRmat(scale, [](Rng& rng) { return 0.1 + rng.NextDouble(); });
}

/// A weighted RMAT + ring with 16x the per-round cutoff in arcs, so that its
/// widest buckets hold more than kSerialRoundArcs arcs and fork.
CsrGraph ForkingRmat() {
  return WeightedRmat(static_cast<uint32_t>(std::countr_zero(kSerialRoundArcs)) + 1);
}

/// A 128 x 128 road lattice with weights 0.1 + U[0,1), built like the
/// traverse_road benchmark's: every bucket stays below the cutoff.
CsrGraph WeightedLattice() {
  Rng rng(128);
  EdgeList el = gen::RoadLike(128, 128, {}, &rng).ValueOrDie();
  for (Edge& e : el.mutable_edges()) e.weight = 0.1 + rng.NextDouble();
  CsrOptions opts;
  opts.directed = false;
  return CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
}

/// A named delta-stepping input.
struct SsspInput {
  std::string name;
  CsrGraph graph;
};

/// The inputs beyond the small weighted RMATs: one whose rounds fork, the
/// benchmark's lattice shape, and bucket-boundary and zero-weight edge
/// cases.
std::vector<SsspInput> MoreSsspInputs() {
  std::vector<SsspInput> inputs;
  inputs.push_back({"forking_rmat", ForkingRmat()});
  inputs.push_back({"lattice128", WeightedLattice()});
  // Every arc weighs exactly delta (the smallest weight).
  inputs.push_back({"equal_weights", WeightedRmat(8, [](Rng&) { return 0.7; })});
  // Exact multiples of delta = 0.25, so many distances sit on bucket
  // boundaries.
  inputs.push_back({"delta_multiples", WeightedRmat(8, [](Rng& rng) {
                      return 0.25 * static_cast<double>(1 + rng.NextBounded(8));
                    })});
  // A zero-weight six-cycle through the sources (0 and 3), and a
  // zero-weight two-cycle that two of its vertices reach by 1.5 arcs.
  EdgeList el;
  for (VertexId v = 0; v < 6; ++v) el.Add(v, (v + 1) % 6, 0.0);
  el.Add(0, 6, 1.5);
  el.Add(6, 7, 0.0);
  el.Add(7, 6, 0.0);
  el.Add(3, 7, 1.5);
  el.Add(7, 8, 2.0);
  inputs.push_back(
      {"zero_cycle", CsrGraph::FromEdges(std::move(el), CsrOptions{}).ValueOrDie()});
  // A quarter of the arcs weigh zero, closing zero-weight cycles.
  inputs.push_back({"zero_weight_rmat", WeightedRmat(8, [](Rng& rng) {
                      return rng.NextBounded(4) == 0 ? 0.0 : 0.1 + rng.NextDouble();
                    })});
  return inputs;
}

/// Runs delta-stepping and returns its tree plus how many of its rounds
/// forked (read from the sssp.delta.forked_rounds counter).
std::pair<ShortestPathTree, int64_t> RunCountingForks(const CsrGraph& g,
                                                       VertexId source,
                                                       const SsspOptions& opts) {
  const int64_t before = obs::CounterValue("sssp.delta.forked_rounds");
  ShortestPathTree t = DeltaSteppingSssp(g, source, opts).ValueOrDie();
  return {std::move(t), obs::CounterValue("sssp.delta.forked_rounds") - before};
}

/// Unweighted directed RMAT + ring (the centrality/k-core fixture).
CsrGraph PlainRmat(uint32_t scale) {
  Rng rng(scale * 7919ULL + 23);
  EdgeList el =
      gen::Rmat(scale, static_cast<uint64_t>(8) << scale, &rng).ValueOrDie();
  const VertexId n = el.num_vertices();
  for (VertexId v = 0; v < n; ++v) el.Add(v, (v + 1) % n);
  return CsrGraph::FromEdges(std::move(el), CsrOptions{}).ValueOrDie();
}

/// Asserts `t` is a valid shortest-path tree for `g`: parents only on
/// reached vertices, every parent edge tight (dist[p] + w == dist[v]), and
/// every chain reaches the source in at most n hops (acyclic).
void ValidateTree(const CsrGraph& g, const ShortestPathTree& t,
                  VertexId source) {
  const VertexId n = g.num_vertices();
  ASSERT_EQ(t.parent[source], source);
  for (VertexId v = 0; v < n; ++v) {
    if (t.distance[v] == kInfDistance) {
      EXPECT_EQ(t.parent[v], kInvalidVertex) << v;
      continue;
    }
    if (v == source) continue;
    const VertexId p = t.parent[v];
    ASSERT_LT(p, n) << v;
    bool tight = false;
    auto nbrs = g.OutNeighbors(p);
    auto ws = g.OutWeights(p);
    for (size_t i = 0; i < nbrs.size() && !tight; ++i) {
      tight = nbrs[i] == v && t.distance[p] + ws[i] == t.distance[v];
    }
    EXPECT_TRUE(tight) << "no tight edge " << p << "->" << v;
    VertexId cur = v;
    uint32_t hops = 0;
    while (cur != source && hops <= n) {
      cur = t.parent[cur];
      ++hops;
    }
    EXPECT_EQ(cur, source) << "parent chain from " << v << " cycles";
  }
}

/// Asserts every parent is the minimum-id strictly improving tight
/// predecessor (w > 0, dist[u] + w == dist[v]) where one exists — the rule
/// the parent post-pass implements, independent of relaxation order.
void ExpectMinIdParents(const CsrGraph& g, const ShortestPathTree& t,
                        VertexId source) {
  std::vector<VertexId> best(g.num_vertices(), kInvalidVertex);
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    if (t.distance[u] == kInfDistance) continue;
    auto nbrs = g.OutNeighbors(u);
    auto ws = g.OutWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v != source && ws[i] > 0 && t.distance[v] != kInfDistance &&
          t.distance[u] + ws[i] == t.distance[v]) {
        best[v] = std::min(best[v], u);
      }
    }
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (best[v] != kInvalidVertex) {
      EXPECT_EQ(t.parent[v], best[v]) << v;
    }
  }
}

// --- bucket structure ---

TEST(BucketStructureTest, PopsInPriorityOrderWithClamping) {
  BucketStructure b(4);
  b.Insert(3, 30);
  b.Insert(1, 10);
  b.Insert(3, 31);
  std::vector<VertexId> out;
  EXPECT_EQ(b.PopNextBucket(&out), 1u);
  EXPECT_EQ(out, (std::vector<VertexId>{10}));
  // An insert below the cursor clamps up to it and is re-popped before the
  // cursor moves on.
  b.Insert(0, 11);
  EXPECT_EQ(b.PopNextBucket(&out), 1u);
  EXPECT_EQ(out, (std::vector<VertexId>{11}));
  EXPECT_EQ(b.PopNextBucket(&out), 3u);
  EXPECT_EQ(out, (std::vector<VertexId>{30, 31}));
  EXPECT_EQ(b.PopNextBucket(&out), BucketStructure::kNoBucket);
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.stats().items_inserted, 4u);
  EXPECT_EQ(b.stats().items_popped, 4u);
  EXPECT_EQ(b.stats().buckets_popped, 3u);
  EXPECT_EQ(b.stats().max_bucket, 3u);
}

TEST(BucketStructureTest, InsertBatchMergesInOrder) {
  BucketStructure b(8);
  const BucketItem batch[] = {{2, 5}, {2, 6}, {4, 7}};
  b.InsertBatch(batch);
  std::vector<VertexId> out;
  EXPECT_EQ(b.PopNextBucket(&out), 2u);
  EXPECT_EQ(out, (std::vector<VertexId>{5, 6}));
  EXPECT_EQ(b.size(), 1u);
}

TEST(BucketStructureTest, RingWrapsAndSkipsGaps) {
  // A 200-bucket span rounds up to 256 slots: four bitmap words, so pops
  // cross word boundaries and wrap from the last slot to the first.
  BucketStructure b(200);
  std::vector<VertexId> out;
  uint64_t cursor = 0;
  b.Insert(0, 1);
  for (VertexId v = 2; v < 12; ++v) {
    ASSERT_EQ(b.PopNextBucket(&out), cursor);
    EXPECT_EQ(out, (std::vector<VertexId>{v - 1}));
    // The farthest bucket the span allows, skipping 198 empty ones.
    cursor += 199;
    b.Insert(cursor, v);
  }
  ASSERT_EQ(b.PopNextBucket(&out), cursor);
  EXPECT_EQ(out, (std::vector<VertexId>{11}));
  // Entries spread over the span pop in bucket order across the wrap.
  b.Insert(cursor + 150, 21);
  b.Insert(cursor + 3, 20);
  b.Insert(cursor + 150, 22);
  EXPECT_EQ(b.PopNextBucket(&out), cursor + 3);
  EXPECT_EQ(out, (std::vector<VertexId>{20}));
  EXPECT_EQ(b.PopNextBucket(&out), cursor + 150);
  EXPECT_EQ(out, (std::vector<VertexId>{21, 22}));
  EXPECT_EQ(b.PopNextBucket(&out), BucketStructure::kNoBucket);
  EXPECT_EQ(b.stats().max_bucket, cursor + 150);
  EXPECT_EQ(b.stats().buckets_popped, 13u);
}

// --- delta-stepping SSSP ---

TEST(DeltaSteppingTest, MatchesDijkstraBitwiseOnWeightedRmat) {
  CsrGraph g = WeightedRmat(9);
  ShortestPathTree oracle = Dijkstra(g, 0).ValueOrDie();
  for (uint32_t threads : kThreadCounts) {
    SsspOptions opts;
    opts.num_threads = threads;
    ShortestPathTree t = DeltaSteppingSssp(g, 0, opts).ValueOrDie();
    ASSERT_EQ(t.distance, oracle.distance) << "threads=" << threads;
    ValidateTree(g, t, 0);
  }
  for (const SsspInput& in : MoreSsspInputs()) {
    oracle = Dijkstra(in.graph, 0).ValueOrDie();
    for (uint32_t threads : kThreadCounts) {
      SsspOptions opts;
      opts.num_threads = threads;
      auto [t, forks] = RunCountingForks(in.graph, 0, opts);
      ASSERT_EQ(t.distance, oracle.distance)
          << in.name << " threads=" << threads;
      ValidateTree(in.graph, t, 0);
      // Only the input sized above the cutoff forks, and only when it can.
      if (in.name == "forking_rmat" && threads >= 2) {
        EXPECT_GT(forks, 0) << "threads=" << threads;
      } else {
        EXPECT_EQ(forks, 0) << in.name << " threads=" << threads;
      }
    }
  }
}

TEST(DeltaSteppingTest, ParentTreeIsDeterministicAcrossThreads) {
  CsrGraph g = WeightedRmat(8);
  SsspOptions serial;
  ShortestPathTree base = DeltaSteppingSssp(g, 3, serial).ValueOrDie();
  for (uint32_t threads : {2u, 4u, 8u}) {
    SsspOptions opts;
    opts.num_threads = threads;
    ShortestPathTree t = DeltaSteppingSssp(g, 3, opts).ValueOrDie();
    EXPECT_EQ(t.parent, base.parent) << "threads=" << threads;
  }
  for (const SsspInput& in : MoreSsspInputs()) {
    base = DeltaSteppingSssp(in.graph, 3, serial).ValueOrDie();
    ExpectMinIdParents(in.graph, base, 3);
    for (uint32_t threads : {2u, 4u, 8u}) {
      SsspOptions opts;
      opts.num_threads = threads;
      auto [t, forks] = RunCountingForks(in.graph, 3, opts);
      EXPECT_EQ(t.parent, base.parent) << in.name << " threads=" << threads;
      if (in.name == "forking_rmat") {
        EXPECT_GT(forks, 0) << "threads=" << threads;
      } else if (in.name == "lattice128") {
        EXPECT_EQ(forks, 0) << "threads=" << threads;
      }
    }
  }
}

TEST(DeltaSteppingTest, ExplicitDeltasStillMatchDijkstra) {
  CsrGraph g = WeightedRmat(8);
  ShortestPathTree oracle = Dijkstra(g, 0).ValueOrDie();
  // Many buckets .. one bucket; the extremes are raised to the ring's floor
  // or collapse every distance into bucket 0.
  for (double delta : {1e-9, 0.05, 0.6, 50.0, 1e300}) {
    SsspOptions opts;
    opts.num_threads = 4;
    opts.delta = delta;
    ShortestPathTree t = DeltaSteppingSssp(g, 0, opts).ValueOrDie();
    EXPECT_EQ(t.distance, oracle.distance) << "delta=" << delta;
  }
}

TEST(DeltaSteppingTest, HostileWeightsMatchDijkstraOrFailWithIt) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  // One 1e6 arc run with a 1e-9 delta: a bucket index near 1e15 unless the
  // delta is raised to the ring's floor.
  EdgeList one_arc;
  one_arc.Add(0, 1, 1e6);
  // A lone 1e-12 arc beside 1e6 arcs: the ring spans every arc's reach
  // without a bucket per 1e-12.
  EdgeList tiny;
  for (VertexId v = 0; v + 1 < 40; ++v) tiny.Add(v, v + 1, 1e6);
  tiny.Add(3, 30, 1e-12);
  tiny.Add(30, 31, 1e-12);
  tiny.Add(0, 39, 3e7);
  // +inf arcs are legal and never improve a distance; one vertex is
  // reachable only through them.
  EdgeList inf_arcs;
  inf_arcs.Add(0, 1, kInf);
  inf_arcs.Add(0, 2, 1.0);
  inf_arcs.Add(2, 1, 2.5);
  inf_arcs.Add(1, 3, kInf);
  // A NaN arc: both kernels reject the graph instead of answering around it.
  EdgeList nan_arc;
  nan_arc.Add(0, 1, std::numeric_limits<double>::quiet_NaN());
  nan_arc.Add(0, 2, 1.0);
  nan_arc.Add(2, 3, 0.5);

  const CsrGraph one_arc_g =
      CsrGraph::FromEdges(std::move(one_arc), CsrOptions{}).ValueOrDie();
  const CsrGraph tiny_g =
      CsrGraph::FromEdges(std::move(tiny), CsrOptions{}).ValueOrDie();
  const CsrGraph inf_g =
      CsrGraph::FromEdges(std::move(inf_arcs), CsrOptions{}).ValueOrDie();
  const CsrGraph nan_g =
      CsrGraph::FromEdges(std::move(nan_arc), CsrOptions{}).ValueOrDie();

  EXPECT_TRUE(Dijkstra(nan_g, 0).status().IsInvalid());
  for (uint32_t threads : kThreadCounts) {
    SsspOptions opts;
    opts.num_threads = threads;
    for (const CsrGraph* g : {&one_arc_g, &tiny_g, &inf_g}) {
      ShortestPathTree t = DeltaSteppingSssp(*g, 0, opts).ValueOrDie();
      EXPECT_EQ(t.distance, Dijkstra(*g, 0).ValueOrDie().distance)
          << "threads=" << threads;
      ValidateTree(*g, t, 0);
    }
    EXPECT_EQ(DeltaSteppingSssp(inf_g, 0, opts).ValueOrDie().distance[3], kInf);
    EXPECT_TRUE(DeltaSteppingSssp(nan_g, 0, opts).status().IsInvalid());

    opts.delta = 1e-9;
    ShortestPathTree t = DeltaSteppingSssp(one_arc_g, 0, opts).ValueOrDie();
    EXPECT_EQ(t.distance[1], 1e6) << "threads=" << threads;
    EXPECT_EQ(DeltaSteppingSssp(tiny_g, 0, opts).ValueOrDie().distance,
              Dijkstra(tiny_g, 0).ValueOrDie().distance);
  }
}

TEST(DeltaSteppingTest, PathStarAndDisconnected) {
  for (uint32_t threads : kThreadCounts) {
    SsspOptions opts;
    opts.num_threads = threads;

    CsrGraph path = CsrGraph::FromEdges(gen::Path(6), CsrOptions{}).ValueOrDie();
    ShortestPathTree t = DeltaSteppingSssp(path, 0, opts).ValueOrDie();
    EXPECT_EQ(t.distance, Dijkstra(path, 0).ValueOrDie().distance);
    EXPECT_EQ(t.distance[5], 5.0);
    EXPECT_EQ(t.PathTo(5).size(), 6u);

    CsrGraph star = CsrGraph::FromEdges(gen::Star(5), CsrOptions{}).ValueOrDie();
    t = DeltaSteppingSssp(star, 0, opts).ValueOrDie();
    EXPECT_EQ(t.distance, Dijkstra(star, 0).ValueOrDie().distance);

    // Two components: everything across the cut stays at infinity.
    EdgeList el;
    el.Add(0, 1, 2.0);
    el.Add(1, 2, 3.0);
    el.Add(3, 4, 1.0);
    CsrGraph split = CsrGraph::FromEdges(std::move(el), CsrOptions{}).ValueOrDie();
    t = DeltaSteppingSssp(split, 0, opts).ValueOrDie();
    EXPECT_EQ(t.distance[2], 5.0);
    EXPECT_EQ(t.distance[3], kInfDistance);
    EXPECT_EQ(t.parent[4], kInvalidVertex);
  }
}

TEST(DeltaSteppingTest, SingleVertexAndErrors) {
  CsrGraph one = CsrGraph::FromPairs(1, {}).ValueOrDie();
  ShortestPathTree t = DeltaSteppingSssp(one, 0).ValueOrDie();
  EXPECT_EQ(t.distance[0], 0.0);
  EXPECT_FALSE(DeltaSteppingSssp(one, 5).ok());  // out of range

  EdgeList el;
  el.Add(0, 1, -1.0);
  CsrGraph neg = CsrGraph::FromEdges(std::move(el), CsrOptions{}).ValueOrDie();
  EXPECT_FALSE(DeltaSteppingSssp(neg, 0).ok());  // negative weight
}

TEST(DeltaSteppingTest, ZeroWeightTiesGetValidParents) {
  // A zero-weight diamond plus a tail: ties resolved by the deterministic
  // tie BFS, tree still valid and distances still Dijkstra's.
  EdgeList el;
  el.Add(0, 1, 0.0);
  el.Add(0, 2, 0.0);
  el.Add(1, 3, 0.0);
  el.Add(2, 3, 0.0);
  el.Add(3, 4, 1.5);
  CsrGraph g = CsrGraph::FromEdges(std::move(el), CsrOptions{}).ValueOrDie();
  for (uint32_t threads : kThreadCounts) {
    SsspOptions opts;
    opts.num_threads = threads;
    ShortestPathTree t = DeltaSteppingSssp(g, 0, opts).ValueOrDie();
    EXPECT_EQ(t.distance, Dijkstra(g, 0).ValueOrDie().distance);
    ValidateTree(g, t, 0);
  }
}

TEST(DeltaSteppingTest, PermutedGraphGivesSameDistances) {
  CsrGraph g = WeightedRmat(8);
  ShortestPathTree base = DeltaSteppingSssp(g, 0).ValueOrDie();
  std::vector<VertexId> perm = DegreeDescendingOrder(g);
  PermutedCsr p = g.Permute(perm).ValueOrDie();
  for (uint32_t threads : kThreadCounts) {
    SsspOptions opts;
    opts.num_threads = threads;
    ShortestPathTree t = DeltaSteppingSssp(p.graph, perm[0], opts).ValueOrDie();
    // Distances are the unique minimal fixpoint, so they match bitwise after
    // mapping back to original ids.
    EXPECT_EQ(UnpermuteValues<double>(p.new_to_old, t.distance), base.distance)
        << "threads=" << threads;
    ValidateTree(p.graph, t, perm[0]);
  }
}

// --- Brandes betweenness / closeness ---

TEST(ParallelBrandesTest, MatchesSerialBitwiseAtAllThreadCounts) {
  CsrGraph g = PlainRmat(8);
  std::vector<double> serial = BetweennessCentrality(g);
  for (uint32_t threads : kThreadCounts) {
    CentralityOptions opts;
    opts.num_threads = threads;
    EXPECT_EQ(BetweennessCentrality(g, opts), serial) << "threads=" << threads;
  }
}

TEST(ParallelBrandesTest, UndirectedSmallGraphExactValues) {
  CsrOptions copts;
  copts.directed = false;
  CsrGraph g = CsrGraph::FromEdges(gen::Path(5), copts).ValueOrDie();
  for (uint32_t threads : kThreadCounts) {
    CentralityOptions opts;
    opts.num_threads = threads;
    std::vector<double> bc = BetweennessCentrality(g, opts);
    EXPECT_DOUBLE_EQ(bc[2], 4.0) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(bc[0], 0.0) << "threads=" << threads;
  }
}

TEST(ParallelBrandesTest, CompressedGraphMatchesPlainBitwise) {
  CsrGraph g = PlainRmat(8);
  CompressedCsrGraph c = CompressedCsrGraph::FromCsr(g).ValueOrDie();
  std::vector<double> plain = BetweennessCentrality(g);
  for (uint32_t threads : {1u, 4u}) {
    CentralityOptions opts;
    opts.num_threads = threads;
    // Same vertex ids and same adjacency order: identical arithmetic.
    EXPECT_EQ(BetweennessCentrality(c, opts), plain) << "threads=" << threads;
  }
}

TEST(ApproxBetweennessTest, FixedSeedIsDeterministicAcrossThreadCounts) {
  CsrGraph g = PlainRmat(9);
  Rng base_rng(17);
  std::vector<double> base = ApproxBetweennessCentrality(g, 48, &base_rng);
  for (uint32_t threads : kThreadCounts) {
    Rng rng(17);
    CentralityOptions opts;
    opts.num_threads = threads;
    EXPECT_EQ(ApproxBetweennessCentrality(g, 48, &rng, opts), base)
        << "threads=" << threads;
  }
}

TEST(ParallelClosenessTest, BothVariantsMatchSerialBitwise) {
  CsrGraph g = PlainRmat(9);
  std::vector<double> harmonic = HarmonicCloseness(g);
  std::vector<double> classic = ClosenessCentrality(g);
  for (uint32_t threads : kThreadCounts) {
    CentralityOptions opts;
    opts.num_threads = threads;
    EXPECT_EQ(HarmonicCloseness(g, opts), harmonic) << "threads=" << threads;
    EXPECT_EQ(ClosenessCentrality(g, opts), classic) << "threads=" << threads;
  }
}

TEST(ParallelClosenessTest, PermutedAndCompressedMatchPlain) {
  CsrGraph g = PlainRmat(8);
  std::vector<double> base = HarmonicCloseness(g);
  std::vector<VertexId> perm = DegreeDescendingOrder(g);
  PermutedCsr p = g.Permute(perm).ValueOrDie();
  CompressedCsrGraph c = CompressedCsrGraph::FromCsr(g).ValueOrDie();
  CentralityOptions opts;
  opts.num_threads = 4;
  // Permutation renumbers the ascending-id reduction inside each score, so
  // the same terms are summed in a different order: equal to tolerance only.
  std::vector<double> permuted =
      UnpermuteValues<double>(p.new_to_old, HarmonicCloseness(p.graph, opts));
  ASSERT_EQ(permuted.size(), base.size());
  for (size_t v = 0; v < base.size(); ++v) {
    EXPECT_NEAR(permuted[v], base[v], 1e-9 * std::max(1.0, base[v])) << v;
  }
  // The compressed graph keeps ids and adjacency order: identical arithmetic.
  EXPECT_EQ(HarmonicCloseness(c, opts), base);
}

// --- bucketed k-core ---

TEST(BucketedKCoreTest, MatchesSerialOnRmatAtAllThreadCounts) {
  CsrGraph g = PlainRmat(9);
  std::vector<uint32_t> serial = CoreDecomposition(g);
  for (uint32_t threads : kThreadCounts) {
    CoreOptions opts;
    opts.num_threads = threads;
    EXPECT_EQ(CoreDecomposition(g, opts), serial) << "threads=" << threads;
  }
}

TEST(BucketedKCoreTest, EdgeCaseGraphs) {
  for (uint32_t threads : kThreadCounts) {
    CoreOptions opts;
    opts.num_threads = threads;

    CsrGraph star = CsrGraph::FromEdges(gen::Star(6), CsrOptions{}).ValueOrDie();
    EXPECT_EQ(CoreDecomposition(star, opts),
              std::vector<uint32_t>(star.num_vertices(), 1u));

    CsrOptions copts;
    copts.directed = false;
    CsrGraph k5 = CsrGraph::FromEdges(gen::Complete(5), copts).ValueOrDie();
    EXPECT_EQ(CoreDecomposition(k5, opts), std::vector<uint32_t>(5, 4u));

    // Disconnected: a triangle and an isolated edge peel independently.
    EdgeList el;
    el.Add(0, 1);
    el.Add(1, 2);
    el.Add(2, 0);
    el.Add(3, 4);
    CsrGraph split = CsrGraph::FromEdges(std::move(el), CsrOptions{}).ValueOrDie();
    EXPECT_EQ(CoreDecomposition(split, opts),
              (std::vector<uint32_t>{2, 2, 2, 1, 1}));

    CsrGraph empty = CsrGraph::FromPairs(0, {}).ValueOrDie();
    EXPECT_TRUE(CoreDecomposition(empty, opts).empty());
  }
}

TEST(BucketedKCoreTest, PermutedAndCompressedMatchPlain) {
  CsrGraph g = PlainRmat(8);
  std::vector<uint32_t> base = CoreDecomposition(g);
  std::vector<VertexId> perm = DegreeDescendingOrder(g);
  PermutedCsr p = g.Permute(perm).ValueOrDie();
  CompressedCsrGraph c = CompressedCsrGraph::FromCsr(g).ValueOrDie();
  for (uint32_t threads : {1u, 8u}) {
    CoreOptions opts;
    opts.num_threads = threads;
    EXPECT_EQ(UnpermuteValues<uint32_t>(p.new_to_old,
                                        CoreDecomposition(p.graph, opts)),
              base)
        << "threads=" << threads;
    EXPECT_EQ(CoreDecomposition(c, opts), base) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ubigraph
