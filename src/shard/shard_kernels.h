// Shard-at-a-time kernels over a ShardedCsr: PageRank, BFS, and weakly
// connected components that stream segments through the cache instead of
// holding an in-RAM adjacency. All results are reported in ORIGINAL vertex
// ids (translated through the manifest's new_to_old map), so callers compare
// them 1:1 with the src/algorithms kernels.
//
// Execution is destination-owned dense accumulation over the segments' 2D
// grid of blocks (segment.h): segment s holds source shard s, split into one
// block per destination shard. Workers own contiguous ascending runs of
// destination shards — grid columns — and each worker scans only its own
// columns' blocks, segment by ascending segment, folding every arc straight
// into the dense per-vertex state it owns (next-rank, distance + frontier
// flags) with no message buffering at all — or, for CC, linking it into one
// shared algo::ConcurrentUnionFind. Each destination is owned by exactly one
// worker and every block lists its rows in ascending order, so every
// accumulator sees its contributions in the SERIAL in-RAM push kernel's
// float association — at any thread count and any shard count. Dangling
// mass and the L1 delta are straight serial O(V) loops for the same reason.
// PageRank decodes each arc once per iteration, BFS each frontier arc once
// per level and CC each arc once per call (shard.pagerank.edges_streamed,
// shard.bfs.edges_scanned and shard.cc.edges_scanned count them). Every
// decoded id is checked against its block's column before it indexes vertex
// state, so a segment file altered between loads yields Status::Corruption,
// never a stray write.
// Consequences, enforced by tests/sharded_test.cc:
//
//   * PageRank under ShardPartitioner::kContiguous (identity relabel) is
//     bitwise-identical to serial push-mode algo::PageRank on the original
//     graph for every threads/shards/encoding combination.
//   * Under kLdg/kBfsGrow the permutation itself depends on the shard count,
//     so the per-configuration anchor is serial push PageRank on the
//     relabeled graph (g.Permute of the same permutation) — still exact.
//   * BFS distances and component labels are unique graph invariants:
//     bitwise-equal to the in-RAM kernels under every partitioner.
//
// RAM budget: O(V) vertex state plus segment bytes bounded by the cache
// budget; no message scratch. This is what makes the execution fully
// out-of-core rather than semi-external.
#pragma once

#include <cstdint>
#include <vector>

#include "algorithms/connected_components.h"
#include "common/result.h"
#include "shard/sharded_csr.h"

namespace ubigraph::shard {

struct ShardedPageRankOptions {
  double damping = 0.85;
  /// L1 convergence threshold; 0 with max_iterations = fixed-work runs.
  double tolerance = 1e-9;
  uint32_t max_iterations = 100;
  /// 0 = hardware_concurrency, 1 = exact serial path (default), >= 2 = that
  /// many workers. Scores are bitwise-identical at every setting.
  uint32_t num_threads = 1;
};

struct ShardedPageRankResult {
  std::vector<double> scores;  // indexed by ORIGINAL vertex id, sums to 1
  uint32_t iterations = 0;
  double final_delta = 0.0;
  bool converged = false;
};

Result<ShardedPageRankResult> ShardedPageRank(
    const ShardedCsr& g, const ShardedPageRankOptions& options = {});

struct ShardedTraversalOptions {
  /// Same convention as ShardedPageRankOptions::num_threads.
  uint32_t num_threads = 1;
};

/// Level-synchronous BFS from `source` (an ORIGINAL vertex id). Returns hop
/// distances indexed by original id, algo::kUnreachable where unreached —
/// the same contract as algo::BfsDistances. Shards with no frontier vertex
/// in a level are skipped without touching their segments.
Result<std::vector<uint32_t>> ShardedBfs(
    const ShardedCsr& g, VertexId source,
    const ShardedTraversalOptions& options = {});

/// Weakly connected components in one sweep: every arc is decoded once and
/// linked into an algo::ConcurrentUnionFind (union ignores direction).
/// Labels match algo::WeaklyConnectedComponents exactly: canonical ids
/// assigned by first appearance in ascending ORIGINAL vertex order. Graphs
/// below kSerialPassArcs (common/parallel.h) run on the calling thread.
Result<algo::ComponentResult> ShardedComponents(
    const ShardedCsr& g, const ShardedTraversalOptions& options = {});

}  // namespace ubigraph::shard
