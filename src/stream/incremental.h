// Shared substrate for incremental kernel maintenance over update streams —
// the paper's top-ranked challenge pairing (§4.3: scalability + dynamic
// graphs; "incremental or streaming computation" of PageRank, components,
// and k-core is what practitioners actually run). The per-kernel engines
// (incremental_pagerank.h, incremental_components.h, incremental_kcore.h)
// consume GraphDelta batches — typically drained from a DynamicGraph's delta
// log — and maintain the exact answer a from-scratch run would produce,
// reusing what the previous batch left: PageRank sweeps start from the last
// fixpoint, components absorb insertions in a union-find, and k-core peels
// its own flat rows once per batch instead of rebuilding a CSR.
//
// Observability contract: every ApplyBatch flushes its work tallies through
// FlushIncrementalWork into stream.incremental.<kernel>.* counters (vertices
// reactivated, edges re-relaxed, rebuilds) so the incremental-vs-recompute
// cost asymmetry is measurable machine-independently, not just in wall time.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "graph/dynamic_graph.h"

namespace ubigraph::stream {

/// Work tallies one ApplyBatch accumulates locally and flushes once at the
/// end of the batch (the registry's flush-at-end discipline; see DESIGN.md
/// "Observability").
struct IncrementalWork {
  /// Vertices whose state was re-derived (gathers, union touches, vertices
  /// a peel ordered) instead of staying quiescent.
  uint64_t vertices_reactivated = 0;
  /// Edges walked while re-deriving — the machine-independent cost to compare
  /// against a full recompute's edge count.
  uint64_t edges_rerelaxed = 0;
  /// Full from-scratch reconstructions this batch forced.
  uint64_t rebuilds = 0;

  IncrementalWork& operator+=(const IncrementalWork& o) {
    vertices_reactivated += o.vertices_reactivated;
    edges_rerelaxed += o.edges_rerelaxed;
    rebuilds += o.rebuilds;
    return *this;
  }
};

/// Flushes `work` into the global metrics registry as
/// stream.incremental.<kernel>.{vertices_reactivated,edges_rerelaxed,
/// rebuilds,batches}. No-op while instrumentation is disabled.
void FlushIncrementalWork(std::string_view kernel, const IncrementalWork& work);

/// algo::CanonicalComponents' labels: arbitrary component labels remapped to
/// the repo's canonical smallest-vertex order.
std::vector<uint32_t> CanonicalComponentLabels(std::span<const uint32_t> labels);

/// Checks every delta's endpoints against the vertex universe. The engines
/// call this before mutating any state so a bad batch is rejected atomically.
Status ValidateDeltaEndpoints(std::span<const GraphDelta> deltas,
                              VertexId num_vertices);

/// Checks every removal against its arc's live multiplicity, adjusted for the
/// batch's earlier deltas, and fails with NotFound at the first one that
/// removes an arc with no live copy. live_count(src, dst) is the arc's
/// multiplicity before the batch. Like ValidateDeltaEndpoints, the engines
/// call this before mutating any state.
Status ValidateDeltaRemovals(
    std::span<const GraphDelta> deltas,
    const std::function<uint64_t(VertexId, VertexId)>& live_count);

}  // namespace ubigraph::stream
