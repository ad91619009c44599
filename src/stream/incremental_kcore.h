// Incremental k-core maintenance — the computation §4.3's streaming
// participants explicitly named ("incremental or streaming computation of
// ... k-core"). Maintains exact core numbers of an undirected simple graph
// under edge insertions AND deletions. Each vertex keeps its neighbours in a
// sorted flat row, and every ApplyBatch answers with one serial
// Batagelj–Zaversnik peel over those rows (algo::PeelCoreNumbers, the kernel
// behind algo::CoreDecomposition). A batch therefore costs O(V + E) whatever
// its deltas are, ~0.1 ms on the end-to-end benchmark's RMAT-11 update
// stream. A local subcore repair (Sariyüce et al.) touches less per delta,
// but a 64-delta batch makes it re-walk the same dense subcore 64 times
// (~23 ms per batch there); only on a graph far larger than its batches
// would it win (DESIGN.md "Incremental maintenance").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/dynamic_graph.h"
#include "graph/edge_list.h"
#include "stream/incremental.h"

namespace ubigraph::stream {

struct IncrementalKCoreOptions {
  /// Unused: the peel is serial (core numbers are a graph invariant, and on
  /// the stream sizes measured one serial peel takes ~0.1 ms). Kept so
  /// callers that set a thread count on every engine still compile.
  uint32_t num_threads = 1;
};

class IncrementalKCore {
 public:
  using Options = IncrementalKCoreOptions;

  explicit IncrementalKCore(VertexId num_vertices, Options = {})
      : adjacency_(num_vertices), core_(num_vertices, 0) {}

  /// Inserts an undirected edge. Duplicate edges and self-loops are
  /// rejected. The core numbers go stale; the next ApplyBatch, CoreNumber,
  /// core_numbers or Degeneracy call peels once, so loading a graph one
  /// edge at a time costs one peel, not one per edge.
  Status InsertEdge(VertexId u, VertexId v);

  /// Removes an undirected edge (NotFound when absent); stales the core
  /// numbers like InsertEdge.
  Status RemoveEdge(VertexId u, VertexId v);

  /// Applies an ordered batch of deltas (arcs interpreted as undirected
  /// edges), then peels once before returning. The batch is validated
  /// against the batch-adjusted edge set first and rejected atomically:
  /// OutOfRange / Invalid (self-loop) / AlreadyExists / NotFound. On success
  /// flushes stream.incremental.kcore.* counters (single-edge
  /// InsertEdge/RemoveEdge calls and the lazy peels they trigger do not).
  struct BatchResult {
    /// Vertices the batch's peel ordered (V, or 0 when nothing peeled).
    uint64_t vertices_reactivated = 0;
    /// Row entries the batch's peel scanned (2E).
    uint64_t edges_rerelaxed = 0;
    /// Full peels the batch ran: 1, or 0 for an empty batch on fresh cores.
    uint64_t full_rebuilds = 0;
  };
  Result<BatchResult> ApplyBatch(std::span<const GraphDelta> deltas);

  VertexId num_vertices() const { return static_cast<VertexId>(core_.size()); }
  uint64_t num_edges() const { return num_edges_; }

  /// Current core number of a vertex. Like every reader below, it peels
  /// first when single-edge calls left the cores stale, so readers must not
  /// run concurrently with each other or with a writer.
  uint32_t CoreNumber(VertexId v) const { return core_numbers()[v]; }
  const std::vector<uint32_t>& core_numbers() const;

  /// Largest core number.
  uint32_t Degeneracy() const;

  /// Peels run so far, by ApplyBatch and by lazy readers alike.
  uint64_t full_rebuilds() const { return full_rebuilds_; }

  /// Current edges as an EdgeList (each undirected edge once, u < v).
  EdgeList Snapshot() const;

 private:
  /// Adds or removes the undirected edge in both sorted rows; the caller
  /// has validated it.
  void Insert(VertexId u, VertexId v);
  void Remove(VertexId u, VertexId v);
  bool HasEdge(VertexId u, VertexId v) const;
  /// Re-peels when a mutation staled the cores; returns whether it did.
  bool PeelIfStale() const;

  // Sorted ascending, each undirected edge stored on both sides.
  std::vector<std::vector<VertexId>> adjacency_;
  uint64_t num_edges_ = 0;
  mutable std::vector<uint32_t> core_;
  mutable bool stale_ = false;
  mutable uint64_t full_rebuilds_ = 0;
};

}  // namespace ubigraph::stream
