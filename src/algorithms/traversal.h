// BFS / DFS traversals (Table 11 of the survey: the fundamental traversals
// participants build their algorithms from), plus k-hop neighborhood queries
// (Table 9, 2nd most used computation: "finding 2-degree neighbors").
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/csr_graph.h"

namespace ubigraph {
class CompressedCsrGraph;
}

namespace ubigraph::algo {

inline constexpr uint32_t kUnreachable = UINT32_MAX;

struct BfsOptions {
  /// 0 = hardware_concurrency, 1 = exact serial path (default), >= 2 = that
  /// many workers running HybridBfs's push direction. Distances are identical
  /// to the serial traversal at any thread count (BFS depths are unique).
  uint32_t num_threads = 1;
};

/// BFS from `source`; returns hop distance per vertex (kUnreachable if not
/// reached). The CompressedCsrGraph overloads run the same engine through the
/// NeighborRangeGraph seam and return identical distances.
std::vector<uint32_t> BfsDistances(const CsrGraph& g, VertexId source,
                                   BfsOptions options = {});
std::vector<uint32_t> BfsDistances(const CompressedCsrGraph& g, VertexId source,
                                   BfsOptions options = {});

/// Multi-source BFS: hop distance to the nearest source (all sources at depth
/// 0; duplicate or out-of-range sources are ignored). The building block for
/// landmark distance sketches and parallel closeness estimation.
std::vector<uint32_t> MultiSourceBfs(const CsrGraph& g,
                                     std::span<const VertexId> sources,
                                     BfsOptions options = {});
std::vector<uint32_t> MultiSourceBfs(const CompressedCsrGraph& g,
                                     std::span<const VertexId> sources,
                                     BfsOptions options = {});

/// Which side of an edge a traversal round expands from.
enum class TraversalDirection : uint8_t {
  /// Top-down: expand the frontier's out-edges (classic BFS).
  kPush,
  /// Bottom-up: every unreached vertex scans its in-edges for a frontier
  /// parent. Wins when the frontier covers most remaining edges.
  kPull,
  /// Beamer-style direction optimization: start push, switch per-round on
  /// the edge-work heuristic below.
  kAuto,
};

struct HybridBfsOptions {
  /// 0 = hardware_concurrency, 1 = exact serial path (default), >= 2 = that
  /// many workers. Distances are identical at any thread count and in any
  /// direction mode (BFS depths are unique).
  uint32_t num_threads = 1;
  TraversalDirection direction = TraversalDirection::kAuto;
  /// kAuto switches push -> pull when the frontier's out-edge count exceeds
  /// |E| / alpha ...
  double alpha = 15.0;
  /// ... and back to push when the frontier shrinks below |V| / beta.
  double beta = 18.0;
};

/// Direction-optimizing BFS from `source` (out-of-range sources yield an
/// all-unreachable result). Requires the in-edge index on directed graphs
/// unless direction == kPush; fails with InvalidArgument otherwise. Switch
/// decisions and per-round edge work land in the obs registry under
/// `bfs.hybrid.*`.
Result<std::vector<uint32_t>> HybridBfs(const CsrGraph& g, VertexId source,
                                        HybridBfsOptions options = {});
Result<std::vector<uint32_t>> HybridBfs(const CompressedCsrGraph& g,
                                        VertexId source,
                                        HybridBfsOptions options = {});

/// Multi-source variant (all sources at depth 0; duplicates and out-of-range
/// sources are ignored).
Result<std::vector<uint32_t>> HybridMultiSourceBfs(
    const CsrGraph& g, std::span<const VertexId> sources,
    HybridBfsOptions options = {});
Result<std::vector<uint32_t>> HybridMultiSourceBfs(
    const CompressedCsrGraph& g, std::span<const VertexId> sources,
    HybridBfsOptions options = {});

/// BFS returning the parent tree (parent[source] == source,
/// kInvalidVertex if unreached).
std::vector<VertexId> BfsParents(const CsrGraph& g, VertexId source);

/// Visits vertices in BFS order; visitor returns false to stop early.
/// Returns the number of vertices visited.
uint64_t BfsVisit(const CsrGraph& g, VertexId source,
                  const std::function<bool(VertexId, uint32_t depth)>& visit);

/// Iterative DFS preorder from `source` (neighbor order = adjacency order).
std::vector<VertexId> DfsPreorder(const CsrGraph& g, VertexId source);

/// Iterative DFS postorder from `source`.
std::vector<VertexId> DfsPostorder(const CsrGraph& g, VertexId source);

/// Full-graph DFS: preorder over all roots in ascending id order. Also
/// reports discovery/finish clocks — reusable for SCC/topo-sort tests.
struct DfsForest {
  std::vector<VertexId> preorder;
  std::vector<uint32_t> discover;  // per vertex
  std::vector<uint32_t> finish;    // per vertex
  std::vector<VertexId> root;      // per vertex: root of its DFS tree
};
DfsForest DfsFull(const CsrGraph& g);

/// All vertices within exactly `hops` BFS hops of source (excluding source).
std::vector<VertexId> NeighborsAtHop(const CsrGraph& g, VertexId source, uint32_t hops);

/// All vertices within at most `hops` BFS hops of source (excluding source).
std::vector<VertexId> NeighborsWithinHops(const CsrGraph& g, VertexId source,
                                          uint32_t hops);

/// Topological order of a DAG; fails with Invalid if the graph has a cycle.
Result<std::vector<VertexId>> TopologicalSort(const CsrGraph& g);

/// High-degree vertex handling — the most-reported graph-database challenge
/// (Table 19: 24 email threads): "skip finding paths that go over such
/// vertices". BFS distances where vertices with out-degree > `max_degree` may
/// be *reached* but are never *expanded* (paths cannot route through
/// supernodes). The source is always expanded.
std::vector<uint32_t> BfsDistancesSkippingSupernodes(const CsrGraph& g,
                                                     VertexId source,
                                                     uint64_t max_degree);

}  // namespace ubigraph::algo
