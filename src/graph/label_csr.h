// Compact per-edge-type CSR adjacency + label index + degree statistics over
// a PropertyGraph. This is the data layout the vectorized Cypher executor
// runs on: batched expand operators read sorted, deduplicated neighbor
// ranges instead of filtering the property graph's per-vertex edge-id lists
// edge by edge, and the planner's cost model reads the per-(label, type)
// average degrees recomputed from the same rows.
//
// The graph is append-only and its edge ids are dense, so the view follows
// it by catching up: CatchUp absorbs the vertices and edges added since the
// view last saw the graph, merges the new arcs into the sorted rows in one
// linear pass, and records the PropertyGraph::version() it reached so callers
// (QueryEngine, tests) can detect staleness. Build is a catch-up from an
// empty view. Row spans are invalidated by a catch-up.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/property_graph.h"

namespace ubigraph {

class LabelCsrView {
 public:
  /// Sentinel type/label ids selecting "no constraint".
  static constexpr uint32_t kAnyType = UINT32_MAX;
  static constexpr uint32_t kAnyLabel = UINT32_MAX;

  /// Degree statistics for the planner's cost model. All arc counts are over
  /// *distinct* (src, dst) pairs per type (parallel edges collapse), matching
  /// the work the expand operators actually do.
  struct Stats {
    uint64_t num_vertices = 0;
    std::vector<uint64_t> label_counts;  // by label id in graph.labels()
    // [type id][label id]: distinct arcs of that type grouped by the label of
    // the src (out) / dst (in) endpoint.
    std::vector<std::vector<uint64_t>> out_arcs_by_type_label;
    std::vector<std::vector<uint64_t>> in_arcs_by_type_label;
    std::vector<uint64_t> arcs_by_type;
    // Any-type arcs (deduplicated across types) grouped by endpoint label.
    std::vector<uint64_t> out_arcs_by_label;
    std::vector<uint64_t> in_arcs_by_label;
    uint64_t total_arcs = 0;

    /// Number of vertices carrying the label (kAnyLabel = all vertices;
    /// out-of-range ids count 0).
    double LabelCount(uint32_t label_id) const;

    /// Average number of distinct out- (or in-) neighbors over `type_id` arcs
    /// of a vertex with the given label. 0 when the label is empty/unknown.
    double AvgDegree(uint32_t label_id, uint32_t type_id, bool out) const;
  };

  /// The view of the whole graph: CatchUp run on an empty view.
  static LabelCsrView Build(const PropertyGraph& graph);

  /// Absorbs every vertex and edge appended to `graph` since this view last
  /// saw it (the view must come from the same graph) and recomputes the
  /// statistics. Costs O(V + arcs) for each edge type that gained edges plus
  /// the any-type view; flushes the new edge count to query.view.arcs_merged.
  void CatchUp(const PropertyGraph& graph);

  uint64_t built_version() const { return built_version_; }
  VertexId num_vertices() const { return num_vertices_; }

  /// Sorted, deduplicated neighbors of v over arcs of the given type
  /// (kAnyType = any). Unknown/out-of-range type ids yield an empty span.
  std::span<const VertexId> OutNeighbors(VertexId v, uint32_t type_id) const;
  std::span<const VertexId> InNeighbors(VertexId v, uint32_t type_id) const;

  /// Binary-search existence probe: is there an arc from -> to of this type?
  bool HasArc(VertexId from, VertexId to, uint32_t type_id) const;

  /// Ascending vertex ids with the given label; empty for unknown ids.
  const std::vector<VertexId>& VerticesWithLabel(uint32_t label_id) const;

  const Stats& stats() const { return stats_; }

 private:
  struct Adjacency {
    std::vector<uint64_t> out_offsets;  // size V+1, or empty when unbuilt
    std::vector<VertexId> out_targets;  // sorted + dedup'd per row
    std::vector<uint64_t> in_offsets;
    std::vector<VertexId> in_sources;  // sorted + dedup'd per row
  };

  using Arc = std::pair<VertexId, VertexId>;

  /// Merges `fresh` (unsorted, possibly repeated arcs) into adj's rows over
  /// `n` vertices, then rebuilds its in rows from the merged out rows.
  static void Absorb(Adjacency* adj, VertexId n, std::span<const Arc> fresh);

  void RefreshStats();

  const Adjacency* AdjacencyFor(uint32_t type_id) const;

  uint64_t built_version_ = 0;
  VertexId num_vertices_ = 0;
  uint64_t num_edges_ = 0;          // edges [0, num_edges_) are absorbed
  std::vector<Adjacency> by_type_;  // indexed by dictionary id (labels share
                                    // the dict with types; label-only entries
                                    // stay empty)
  Adjacency all_;                   // any-type arcs, dedup'd across types
  std::vector<std::vector<VertexId>> by_label_;
  std::vector<VertexId> no_vertices_;
  Stats stats_;
};

}  // namespace ubigraph
