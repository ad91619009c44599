// Shortest paths (Table 9: 43/89 participants). Unweighted BFS distances,
// Dijkstra, Bellman-Ford (negative weights + cycle detection), and
// bidirectional BFS for point-to-point queries.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"

namespace ubigraph::algo {

inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

struct ShortestPathTree {
  std::vector<double> distance;   // kInfDistance if unreachable
  std::vector<VertexId> parent;   // kInvalidVertex if unreachable / source

  /// Reconstructs the path source -> target; empty if unreachable.
  std::vector<VertexId> PathTo(VertexId target) const;
};

/// Dijkstra from `source`. Fails with Invalid on a negative or NaN weight.
Result<ShortestPathTree> Dijkstra(const CsrGraph& g, VertexId source);

struct SsspOptions {
  /// 0 = hardware concurrency, 1 = exact serial path (default), else that
  /// many workers (the convention shared by every parallel kernel).
  uint32_t num_threads = 1;
  /// Bucket width for delta-stepping. 0 (the default) uses the smallest
  /// positive finite arc weight, so every arc but a zero-weight one leaves
  /// the popped bucket (1 when there is none). Any width, given or
  /// default, is raised to at least (largest finite weight) / 4096, which
  /// bounds the bucket ring to 4099 slots.
  double delta = 0.0;
};

/// Delta-stepping SSSP (Meyer-Sanders) over a bounded ring of buckets:
/// vertices are bucketed by floor(dist / delta), and each popped vertex
/// still in its bucket relaxes all of its arcs in one pass. A round whose
/// frontier has fewer than kSerialRoundArcs arcs runs on the caller; a
/// larger one forks. Distances are bitwise-equal to Dijkstra's at every
/// delta and thread count (shortest-path distances are the unique minimal
/// fixpoint, and each distance is produced by the same chain of FP
/// additions), and the parent tree is deterministic (min-id tight
/// predecessor). Fails with Invalid on a negative or NaN weight; +inf
/// weights are legal.
Result<ShortestPathTree> DeltaSteppingSssp(const CsrGraph& g, VertexId source,
                                           const SsspOptions& options = {});

/// Dijkstra stopping as soon as `target` is settled; distance() still valid
/// for settled vertices only.
Result<double> DijkstraPointToPoint(const CsrGraph& g, VertexId source,
                                    VertexId target);

/// Bellman-Ford from `source`. Fails with Invalid on a reachable negative
/// cycle.
Result<ShortestPathTree> BellmanFord(const CsrGraph& g, VertexId source);

/// Hop distance between two vertices via bidirectional BFS; UINT32_MAX when
/// disconnected. Directed graphs must carry the in-edge index (clear
/// InvalidArgument otherwise, like the pull kernels); endpoints out of range
/// are OutOfRange.
Result<uint32_t> BidirectionalBfsDistance(const CsrGraph& g, VertexId source,
                                          VertexId target);

/// All-pairs shortest hop distances via repeated BFS. Only sensible for small
/// graphs; the diameter estimator uses sampling instead.
std::vector<std::vector<uint32_t>> AllPairsHopDistances(const CsrGraph& g);

/// A weighted path with its total cost.
struct WeightedPath {
  std::vector<VertexId> vertices;  // source .. target
  double cost = 0.0;
};

/// Yen's algorithm: the k shortest loopless paths from source to target by
/// non-decreasing cost (fewer than k returned when the graph has fewer
/// distinct paths). Fails with Invalid on a negative or NaN weight.
Result<std::vector<WeightedPath>> KShortestPaths(const CsrGraph& g,
                                                 VertexId source, VertexId target,
                                                 uint32_t k);

}  // namespace ubigraph::algo
