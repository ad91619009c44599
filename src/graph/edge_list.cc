#include "graph/edge_list.h"

#include <algorithm>

namespace ubigraph {

void EdgeList::Add(VertexId src, VertexId dst, double weight) {
  edges_.push_back(Edge{src, dst, weight});
  VertexId hi = std::max(src, dst);
  if (hi >= num_vertices_) num_vertices_ = hi + 1;
}

void EdgeList::Sort() {
  std::sort(edges_.begin(), edges_.end(), [](const Edge& a, const Edge& b) {
    if (a.src != b.src) return a.src < b.src;
    if (a.dst != b.dst) return a.dst < b.dst;
    return a.weight < b.weight;
  });
}

void EdgeList::Deduplicate() {
  Sort();
  auto last = std::unique(edges_.begin(), edges_.end(),
                          [](const Edge& a, const Edge& b) {
                            return a.src == b.src && a.dst == b.dst;
                          });
  edges_.erase(last, edges_.end());
}

void EdgeList::RemoveSelfLoops() {
  auto last = std::remove_if(edges_.begin(), edges_.end(),
                             [](const Edge& e) { return e.src == e.dst; });
  edges_.erase(last, edges_.end());
}

EdgeList EdgeList::Reversed() const {
  EdgeList out(num_vertices_);
  out.Reserve(edges_.size());
  for (const Edge& e : edges_) out.Add(e.dst, e.src, e.weight);
  return out;
}

EdgeList EdgeList::Symmetrized() const {
  EdgeList out(num_vertices_);
  out.Reserve(edges_.size() * 2);
  for (const Edge& e : edges_) {
    out.Add(e.src, e.dst, e.weight);
    if (e.src != e.dst) out.Add(e.dst, e.src, e.weight);
  }
  return out;
}

Status EdgeList::Validate(bool* unit_weights) const {
  // Weights are compared only up to the first one other than 1.0.
  bool unit = true;
  for (const Edge& e : edges_) {
    if (e.src >= num_vertices_ || e.dst >= num_vertices_) {
      return Status::Invalid("edge (" + std::to_string(e.src) + ", " +
                             std::to_string(e.dst) + ") exceeds vertex count " +
                             std::to_string(num_vertices_));
    }
    unit = unit && e.weight == 1.0;
  }
  if (unit_weights != nullptr) *unit_weights = unit;
  return Status::OK();
}

}  // namespace ubigraph
