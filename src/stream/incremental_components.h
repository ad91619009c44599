// Incrementally maintained weakly connected components over GraphDelta
// batches. Insertions are absorbed by a union-find in near-constant time
// (component merges only ever coarsen the partition). Deletions can split a
// component, which union-find cannot undo, so a batch whose deletions remove
// the last undirected connection between two distinct endpoints triggers ONE
// rebuild at the end of the batch — the union-find re-seeded from the live
// arcs, counted in rebuilds(), the cost-asymmetry counter. Deletions of
// parallel arcs (another copy survives) and self-loops never rebuild.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "algorithms/connected_components.h"
#include "common/result.h"
#include "graph/edge_list.h"
#include "stream/incremental.h"

namespace ubigraph::stream {

struct IncrementalComponentsOptions {
  /// Unused: the engine is serial. Kept so existing callers compile.
  uint32_t num_threads = 1;
};

class IncrementalComponents {
 public:
  using Options = IncrementalComponentsOptions;

  struct BatchResult {
    /// Component merges performed by insertions.
    uint64_t merges = 0;
    /// 1 when the batch's deletions forced a relabel, else 0.
    uint64_t rebuilds = 0;
    uint32_t num_components = 0;
  };

  /// Builds the engine over a directed edge snapshot (weak connectivity:
  /// direction is ignored, parallel arcs add multiplicity).
  static Result<IncrementalComponents> Create(const EdgeList& edges,
                                              Options options = {});

  /// Applies an ordered delta batch. Validated first and rejected atomically
  /// (OutOfRange endpoints; NotFound when removing an arc that is not live
  /// after earlier deltas of the batch). Flushes
  /// stream.incremental.components.* counters on success.
  Result<BatchResult> ApplyBatch(std::span<const GraphDelta> deltas);

  /// Canonical labels: assigned in order of each component's smallest vertex,
  /// matching algo::WeaklyConnectedComponents on the same live graph.
  std::vector<uint32_t> Labels() const;
  uint32_t num_components() const {
    return static_cast<uint32_t>(uf_.num_sets());
  }
  VertexId num_vertices() const { return n_; }
  uint64_t num_edges() const { return num_edges_; }
  /// Total full relabels forced by deletions since creation.
  uint64_t rebuilds() const { return rebuilds_; }

 private:
  explicit IncrementalComponents(VertexId n);

  /// Re-seeds the union-find from the live multiplicity map. Returns the
  /// number of live non-loop arcs linked (the rebuild's edge work).
  uint64_t Rebuild();

  VertexId n_ = 0;
  uint64_t num_edges_ = 0;
  uint64_t rebuilds_ = 0;
  /// Live multiplicity per directed (src, dst) arc; zero-count keys erased.
  std::map<std::pair<VertexId, VertexId>, uint64_t> mult_;
  mutable algo::UnionFind uf_;
};

}  // namespace ubigraph::stream
