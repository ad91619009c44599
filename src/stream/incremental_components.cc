#include "stream/incremental_components.h"

#include <string>

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

  // Phase 1: validate removals against multiplicities adjusted by earlier
  // deltas of this batch; reject the whole batch before mutating.
  std::map<std::pair<VertexId, VertexId>, int64_t> adjust;
  for (size_t i = 0; i < deltas.size(); ++i) {
    const GraphDelta& d = deltas[i];
    int64_t& adj = adjust[{d.src, d.dst}];
    if (d.kind == GraphDelta::Kind::kInsert) {
      ++adj;
      continue;
    }
    auto it = mult_.find({d.src, d.dst});
    const int64_t live = (it == mult_.end() ? 0 : static_cast<int64_t>(it->second)) + adj;
    if (live <= 0) {
      return Status::NotFound("delta " + std::to_string(i) + " removes arc (" +
                              std::to_string(d.src) + ", " +
                              std::to_string(d.dst) + ") with no live copy");
    }
    --adj;
  }

  // Phase 2: apply. Inserts union immediately; a deletion only endangers
  // connectivity when it removes the LAST undirected connection between
  // distinct endpoints, in which case one rebuild runs at the end of the
  // batch (splits cannot be undone by union-find).
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
