// CsrGraph: the immutable, cache-friendly compressed-sparse-row graph that all
// analytics in src/algorithms and src/ml run on.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/edge_list.h"

namespace ubigraph {

/// Options controlling CSR construction.
struct CsrOptions {
  /// Undirected graphs symmetrize the edge list; OutNeighbors then yields the
  /// full neighborhood and InNeighbors aliases it.
  bool directed = true;
  /// Build the reverse (in-edge) index for directed graphs. Required by
  /// InNeighbors / InDegree; costs one extra pass and |E| extra memory.
  bool build_in_edges = false;
  /// Sort each adjacency list (enables binary-searched HasEdge and merge-based
  /// triangle counting).
  bool sort_neighbors = true;
  /// Drop duplicate (src, dst) pairs. Multigraph analytics keep them.
  bool deduplicate = false;
  /// Drop self-loops.
  bool remove_self_loops = false;
  /// Construction parallelism: 0 = hardware_concurrency, 1 = one chunk on
  /// the caller (default), >= 2 = that many chunks and workers. Every count
  /// runs the same stable counting sort: per-chunk degree counts, the offset
  /// prefix sum, the edge scatter, and per-vertex neighbor sorts, so the
  /// arrays are bitwise-identical at any thread count.
  uint32_t num_threads = 1;
  /// Below this edge count (or on single-core hosts) a parallel build request
  /// silently runs as one chunk: the fork and the num_threads x V block of
  /// per-chunk cursors cost more than they save on small inputs, and
  /// oversubscribed workers on a 1-core box are strictly slower. 0 keeps
  /// every chunk regardless (differential tests and build benchmarks rely on
  /// this). The path taken is recorded in the obs registry as
  /// csr.build.path.{serial,parallel}.
  uint64_t min_parallel_edges = 1u << 17;
};

/// Options controlling CsrGraph::Permute.
struct PermuteOptions {
  /// Same convention as CsrOptions::num_threads.
  uint32_t num_threads = 1;
  /// Re-sort each relabeled adjacency list by new vertex id. Off by default:
  /// the stable relabel preserves each vertex's relative neighbor order, so
  /// gather kernels (pull PageRank) visit neighbors in the same association
  /// order as on the original graph and produce bitwise-identical floats.
  bool sort_neighbors = false;
};

struct PermutedCsr;

/// Immutable CSR graph with optional edge weights and optional in-edge index.
/// A graph whose weights are all exactly 1.0 stores no weight array.
class CsrGraph {
 public:
  /// Default-constructs an empty graph (0 vertices). Useful as a member that
  /// is later assigned from FromEdges().
  CsrGraph() : offsets_(1, 0) {}

  /// Builds from an edge list (copied/moved). Fails if the list is invalid.
  static Result<CsrGraph> FromEdges(EdgeList edges, CsrOptions options = {});

  /// Convenience: directed graph from raw pairs.
  static Result<CsrGraph> FromPairs(VertexId num_vertices,
                                    const std::vector<std::pair<VertexId, VertexId>>& pairs,
                                    CsrOptions options = {});

  VertexId num_vertices() const { return num_vertices_; }
  /// Stored (post-symmetrization) edge count: for undirected graphs this is
  /// the number of directed arcs, i.e. 2x the logical edge count minus loops.
  uint64_t num_edges() const { return dst_.size(); }
  bool directed() const { return directed_; }
  bool has_in_edges() const { return directed_ ? !in_offsets_.empty() : true; }
  bool neighbors_sorted() const { return sorted_; }

  uint64_t OutDegree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    return {dst_.data() + offsets_[v], dst_.data() + offsets_[v + 1]};
  }
  std::span<const double> OutWeights(VertexId v) const {
    if (weights_.empty()) return {unit_row_.data(), OutDegree(v)};
    return {weights_.data() + offsets_[v], weights_.data() + offsets_[v + 1]};
  }

  /// In-edge accessors. For undirected graphs these alias the out index; for
  /// directed graphs build_in_edges must have been set.
  uint64_t InDegree(VertexId v) const;
  std::span<const VertexId> InNeighbors(VertexId v) const;

  /// OK when the in-edge accessors are usable (undirected, or directed with
  /// the reverse index built); otherwise a clear InvalidArgument naming the
  /// fix. Kernels that gather over InNeighbors call this up front instead of
  /// tripping the accessor assert (or, worse, reading empty spans in release
  /// builds).
  Status RequireInEdges(std::string_view caller) const;

  /// O(log degree) when neighbors are sorted, O(degree) otherwise.
  bool HasEdge(VertexId src, VertexId dst) const;

  /// Total degree histogram statistics.
  uint64_t MaxOutDegree() const;

  /// Sum of all out-weights of v.
  double OutWeightSum(VertexId v) const;

  /// Reconstructs the (possibly symmetrized) edge list.
  EdgeList ToEdgeList() const;

  /// Relabels the graph under `perm` (perm[old_id] = new_id, must be a
  /// bijection on [0, V)): vertex old_id becomes new vertex perm[old_id] and
  /// every stored target is rewritten through perm. The relabel is stable —
  /// each vertex's neighbors keep their relative order — so unless
  /// PermuteOptions::sort_neighbors re-sorts them, neighbors_sorted() is
  /// false on the result. Weights ride along; the in-edge index is rebuilt
  /// when present. Runs the per-vertex copy loop in parallel.
  Result<PermutedCsr> Permute(std::span<const VertexId> perm,
                              PermuteOptions options = {}) const;

  const std::vector<uint64_t>& offsets() const { return offsets_; }
  const std::vector<VertexId>& targets() const { return dst_; }
  /// Per-arc weights, aligned with targets(). Empty when every weight is
  /// exactly 1.0: such a graph stores none, and OutWeights yields ones.
  const std::vector<double>& weights() const { return weights_; }

 private:
  VertexId num_vertices_ = 0;
  bool directed_ = true;
  bool sorted_ = false;
  std::vector<uint64_t> offsets_;      // size V+1
  std::vector<VertexId> dst_;          // size E
  std::vector<double> weights_;        // size E, or empty if all are 1.0
  std::vector<double> unit_row_;       // MaxOutDegree() ones if weights_ is empty
  std::vector<uint64_t> in_offsets_;   // size V+1 if built
  std::vector<VertexId> in_src_;       // size E if built
};

/// Result of a Permute call: the relabeled graph plus new_to_old, the inverse
/// of the applied permutation (new_to_old[new_id] = old_id), which callers
/// use to translate per-vertex kernel output back to original ids.
struct PermutedCsr {
  CsrGraph graph;
  std::vector<VertexId> new_to_old;
};

}  // namespace ubigraph
