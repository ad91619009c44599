#include "graph/hypergraph.h"

#include <algorithm>

#include "algorithms/connected_components.h"

namespace ubigraph {

VertexId Hypergraph::AddVertex() {
  vertex_edges_.emplace_back();
  return static_cast<VertexId>(vertex_edges_.size() - 1);
}

Result<HyperedgeId> Hypergraph::AddHyperedge(std::span<const VertexId> members,
                                             double weight) {
  if (members.size() < 2) {
    return Status::Invalid("a hyperedge needs at least 2 members");
  }
  Hyperedge e;
  e.members.assign(members.begin(), members.end());
  std::sort(e.members.begin(), e.members.end());
  if (std::adjacent_find(e.members.begin(), e.members.end()) != e.members.end()) {
    return Status::Invalid("hyperedge members must be distinct");
  }
  for (VertexId v : e.members) {
    if (v >= vertex_edges_.size()) {
      return Status::OutOfRange("member vertex " + std::to_string(v) +
                                " out of range");
    }
  }
  e.weight = weight;
  HyperedgeId id = edges_.size();
  for (VertexId v : e.members) vertex_edges_[v].push_back(id);
  edges_.push_back(std::move(e));
  return id;
}

size_t Hypergraph::MaxEdgeSize() const {
  size_t best = 0;
  for (const Hyperedge& e : edges_) best = std::max(best, e.members.size());
  return best;
}

std::vector<VertexId> Hypergraph::Neighbors(VertexId v) const {
  std::vector<VertexId> out;
  for (HyperedgeId e : vertex_edges_[v]) {
    for (VertexId u : edges_[e].members) {
      if (u != v) out.push_back(u);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

Result<CsrGraph> Hypergraph::CliqueExpansion() const {
  EdgeList el(num_vertices());
  for (const Hyperedge& e : edges_) {
    double w = e.weight / static_cast<double>(e.members.size() - 1);
    for (size_t i = 0; i < e.members.size(); ++i) {
      for (size_t j = i + 1; j < e.members.size(); ++j) {
        el.Add(e.members[i], e.members[j], w);
      }
    }
  }
  el.EnsureVertices(num_vertices());
  CsrOptions opts;
  opts.directed = false;
  return CsrGraph::FromEdges(std::move(el), opts);
}

Result<CsrGraph> Hypergraph::StarExpansion() const {
  VertexId total = num_vertices() + static_cast<VertexId>(edges_.size());
  EdgeList el(total);
  for (HyperedgeId e = 0; e < edges_.size(); ++e) {
    VertexId mock = num_vertices() + static_cast<VertexId>(e);
    for (VertexId member : edges_[e].members) {
      el.Add(mock, member, edges_[e].weight);
    }
  }
  el.EnsureVertices(total);
  CsrOptions opts;
  opts.directed = false;
  return CsrGraph::FromEdges(std::move(el), opts);
}

std::vector<uint32_t> Hypergraph::ConnectedComponents(
    uint32_t* num_components) const {
  algo::UnionFind uf(num_vertices());
  for (const Hyperedge& e : edges_) {
    for (size_t i = 1; i < e.members.size(); ++i) {
      uf.Union(e.members[0], e.members[i]);
    }
  }
  algo::ComponentResult cc = uf.Components();
  if (num_components != nullptr) *num_components = cc.num_components;
  return std::move(cc.label);
}

}  // namespace ubigraph
