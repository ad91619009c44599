#include "stream/incremental_components.h"

namespace ubigraph::stream {

IncrementalComponents::IncrementalComponents(VertexId n) : n_(n), uf_(n) {}

Result<IncrementalComponents> IncrementalComponents::Create(
    const EdgeList& edges, Options) {
  const VertexId n = edges.num_vertices();
  if (n == 0) return Status::Invalid("IncrementalComponents on empty graph");
  IncrementalComponents engine(n);
  for (const Edge& e : edges.edges()) {
    if (e.src >= n || e.dst >= n) {
      return Status::OutOfRange("edge endpoint outside vertex universe");
    }
    ++engine.mult_[{e.src, e.dst}];
    ++engine.num_edges_;
    if (e.src != e.dst) engine.uf_.Union(e.src, e.dst);
  }
  return engine;
}

Result<IncrementalComponents::BatchResult> IncrementalComponents::ApplyBatch(
    std::span<const GraphDelta> deltas) {
  UG_RETURN_NOT_OK(ValidateDeltaEndpoints(deltas, n_));
  UG_RETURN_NOT_OK(ValidateDeltaRemovals(
      deltas, [this](VertexId src, VertexId dst) -> uint64_t {
        auto it = mult_.find({src, dst});
        return it == mult_.end() ? 0 : it->second;
      }));

  // The batch is valid: apply it. Inserts union immediately; a deletion only
  // endangers connectivity when it removes the LAST undirected connection
  // between distinct endpoints, in which case one rebuild runs at the end of
  // the batch (splits cannot be undone by union-find).
  BatchResult result;
  IncrementalWork work;
  bool needs_rebuild = false;
  auto undirected_mult = [&](VertexId a, VertexId b) -> uint64_t {
    uint64_t m = 0;
    if (auto it = mult_.find({a, b}); it != mult_.end()) m += it->second;
    if (auto it = mult_.find({b, a}); it != mult_.end()) m += it->second;
    return m;
  };
  for (const GraphDelta& d : deltas) {
    if (d.kind == GraphDelta::Kind::kInsert) {
      ++mult_[{d.src, d.dst}];
      ++num_edges_;
      if (d.src != d.dst) {
        ++work.edges_rerelaxed;
        if (uf_.Union(d.src, d.dst)) {
          ++result.merges;
          work.vertices_reactivated += 2;
        }
      }
    } else {
      auto it = mult_.find({d.src, d.dst});
      if (--it->second == 0) mult_.erase(it);
      --num_edges_;
      if (d.src != d.dst && undirected_mult(d.src, d.dst) == 0) {
        needs_rebuild = true;
      }
    }
  }

  if (needs_rebuild) {
    work.edges_rerelaxed += Rebuild();
    work.vertices_reactivated += n_;
    work.rebuilds = 1;
    result.rebuilds = 1;
  }
  result.num_components = num_components();
  FlushIncrementalWork("components", work);
  return result;
}

uint64_t IncrementalComponents::Rebuild() {
  uf_ = algo::UnionFind(n_);
  uint64_t linked = 0;
  for (const auto& [arc, count] : mult_) {
    if (arc.first == arc.second) continue;
    uf_.Union(arc.first, arc.second);
    ++linked;
  }
  ++rebuilds_;
  return linked;
}

std::vector<uint32_t> IncrementalComponents::Labels() const {
  return uf_.Components().label;
}

}  // namespace ubigraph::stream
