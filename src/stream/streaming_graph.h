// Streaming graphs (Table 8: 18 participants have streams whose old edges are
// discarded; §4.3 lists incremental statistics and approximate connected
// components among their computations). A sliding-window edge stream with
// incremental degree statistics, exact incremental triangle counting, and
// amortized connected components (incremental union + rebuild on expiry).
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "algorithms/connected_components.h"
#include "common/result.h"
#include "graph/edge_list.h"

namespace ubigraph::stream {

struct StreamingOptions {
  /// Edges older than (now - window) are expired on each Advance/Add.
  uint64_t window = 1000;
  /// Rebuild connected components lazily after this many expirations.
  uint64_t rebuild_threshold = 256;
};

/// A timestamped undirected edge stream over a fixed vertex universe.
class StreamingGraph {
 public:
  StreamingGraph(VertexId num_vertices, StreamingOptions options = {});

  /// Ingests an edge at `timestamp`. Timestamps must be non-decreasing.
  Status AddEdge(VertexId u, VertexId v, uint64_t timestamp);

  /// Moves the clock forward without adding an edge (expires old edges).
  Status Advance(uint64_t timestamp);

  VertexId num_vertices() const { return static_cast<VertexId>(degree_.size()); }
  uint64_t num_live_edges() const { return live_.size(); }
  uint64_t now() const { return now_; }

  uint64_t Degree(VertexId v) const { return degree_[v]; }
  double MeanDegree() const;

  /// Exact triangle count of the live window, maintained incrementally on
  /// insert and decrementally on expiry.
  uint64_t TriangleCount() const { return triangles_; }

  /// Connected-component count of the live window. Incremental for unions;
  /// deletions mark the structure dirty and a rebuild happens lazily (either
  /// after rebuild_threshold expirations or on the next query).
  uint32_t NumComponents();

  /// Whether the component structure is currently exact (false between an
  /// expiry and the next rebuild).
  bool components_fresh() const { return !dirty_; }

  /// Snapshot of live edges as an EdgeList.
  EdgeList Snapshot() const;

 private:
  struct TimedEdge {
    VertexId u;
    VertexId v;
    uint64_t timestamp;
  };

  void Expire();
  void RebuildComponents();
  uint64_t CountCommonNeighbors(VertexId u, VertexId v) const;

  StreamingOptions options_;
  uint64_t now_ = 0;
  std::deque<TimedEdge> live_;
  // Multiset adjacency: neighbor -> multiplicity.
  std::vector<std::unordered_map<VertexId, uint32_t>> adjacency_;
  std::vector<uint64_t> degree_;
  uint64_t triangles_ = 0;

  // Union-find over live vertices; exact until a deletion happens.
  algo::UnionFind uf_;
  bool dirty_ = false;
  uint64_t expiries_since_rebuild_ = 0;
};

}  // namespace ubigraph::stream
