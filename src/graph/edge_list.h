// Edge and EdgeList: the construction-time representation shared by
// generators, IO readers, and graph builders.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "common/result.h"

namespace ubigraph {

/// Vertex identifier. 32-bit: the in-memory workbench targets graphs up to a
/// few billion edges / ~4B vertices; the binary format stores 64-bit counts so
/// the format outlives the in-memory limit.
using VertexId = uint32_t;
using EdgeId = uint64_t;

inline constexpr VertexId kInvalidVertex = std::numeric_limits<VertexId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();

/// A weighted directed edge (for undirected graphs, stored once; CSR
/// symmetrizes on build).
struct Edge {
  VertexId src = 0;
  VertexId dst = 0;
  double weight = 1.0;

  friend bool operator==(const Edge& a, const Edge& b) {
    return a.src == b.src && a.dst == b.dst && a.weight == b.weight;
  }
};

/// A growable list of edges plus the implied vertex-count.
class EdgeList {
 public:
  EdgeList() = default;
  explicit EdgeList(VertexId num_vertices) : num_vertices_(num_vertices) {}
  EdgeList(VertexId num_vertices, std::vector<Edge> edges)
      : num_vertices_(num_vertices), edges_(std::move(edges)) {}

  void Reserve(size_t n) { edges_.reserve(n); }

  /// Appends an edge, growing the vertex count to cover both endpoints.
  void Add(VertexId src, VertexId dst, double weight = 1.0);

  /// Ensures the graph has at least `n` vertices.
  void EnsureVertices(VertexId n) {
    if (n > num_vertices_) num_vertices_ = n;
  }

  VertexId num_vertices() const { return num_vertices_; }
  size_t num_edges() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }
  std::vector<Edge>& mutable_edges() { return edges_; }

  /// Sorts edges by (src, dst, weight) — canonical order for comparisons.
  void Sort();

  /// Removes exact duplicate (src, dst) pairs, keeping the first weight.
  /// Sorts as a side effect.
  void Deduplicate();

  /// Removes self-loops (src == dst).
  void RemoveSelfLoops();

  /// Returns a copy with src/dst swapped on every edge.
  EdgeList Reversed() const;

  /// Returns a copy with both (u,v) and (v,u) for every edge (self-loops kept
  /// once). Useful to feed an undirected graph into directed-only algorithms.
  EdgeList Symmetrized() const;

  /// Fails if any endpoint is >= num_vertices(). When `unit_weights` is
  /// given, also reports whether every weight is exactly 1.0.
  Status Validate(bool* unit_weights = nullptr) const;

 private:
  VertexId num_vertices_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace ubigraph
