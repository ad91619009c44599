#include "stream/incremental_kcore.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "algorithms/kcore.h"

namespace ubigraph::stream {

bool IncrementalKCore::HasEdge(VertexId u, VertexId v) const {
  return std::binary_search(adjacency_[u].begin(), adjacency_[u].end(), v);
}

void IncrementalKCore::Insert(VertexId u, VertexId v) {
  for (auto [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    auto& row = adjacency_[a];
    row.insert(std::lower_bound(row.begin(), row.end(), b), b);
  }
  ++num_edges_;
  stale_ = true;
}

void IncrementalKCore::Remove(VertexId u, VertexId v) {
  for (auto [a, b] : {std::pair{u, v}, std::pair{v, u}}) {
    auto& row = adjacency_[a];
    row.erase(std::lower_bound(row.begin(), row.end(), b));
  }
  --num_edges_;
  stale_ = true;
}

Status IncrementalKCore::InsertEdge(VertexId u, VertexId v) {
  if (u >= core_.size() || v >= core_.size()) {
    return Status::OutOfRange("vertex out of range");
  }
  if (u == v) return Status::Invalid("self-loops not supported");
  if (HasEdge(u, v)) return Status::AlreadyExists("edge already present");
  Insert(u, v);
  return Status::OK();
}

Status IncrementalKCore::RemoveEdge(VertexId u, VertexId v) {
  if (u >= core_.size() || v >= core_.size()) {
    return Status::OutOfRange("vertex out of range");
  }
  if (!HasEdge(u, v)) return Status::NotFound("edge not present");
  Remove(u, v);
  return Status::OK();
}

Result<IncrementalKCore::BatchResult> IncrementalKCore::ApplyBatch(
    std::span<const GraphDelta> deltas) {
  // Phase 1: validate every delta against the batch-adjusted edge set so a
  // bad batch is rejected before any row mutates. Arcs are undirected here:
  // (u, v) and (v, u) address the same edge.
  std::map<std::pair<VertexId, VertexId>, int> present;  // -1/0/+1 vs. base
  for (size_t i = 0; i < deltas.size(); ++i) {
    const GraphDelta& d = deltas[i];
    if (d.src >= core_.size() || d.dst >= core_.size()) {
      return Status::OutOfRange("delta " + std::to_string(i) +
                                " endpoint out of range");
    }
    if (d.src == d.dst) {
      return Status::Invalid("delta " + std::to_string(i) +
                             " is a self-loop (unsupported)");
    }
    auto key = std::minmax(d.src, d.dst);
    int& adj = present[{key.first, key.second}];
    const bool live = (HasEdge(d.src, d.dst) ? 1 : 0) + adj > 0;
    if (d.kind == GraphDelta::Kind::kInsert) {
      if (live) {
        return Status::AlreadyExists("delta " + std::to_string(i) +
                                     " inserts a duplicate edge");
      }
      ++adj;
    } else {
      if (!live) {
        return Status::NotFound("delta " + std::to_string(i) +
                                " removes a missing edge");
      }
      --adj;
    }
  }

  // Phase 2: apply in order (phase 1 mirrored every check), then peel once.
  for (const GraphDelta& d : deltas) {
    if (d.kind == GraphDelta::Kind::kInsert) {
      Insert(d.src, d.dst);
    } else {
      Remove(d.src, d.dst);
    }
  }
  IncrementalWork work;
  if (PeelIfStale()) {
    work = {.vertices_reactivated = core_.size(),
            .edges_rerelaxed = 2 * num_edges_,
            .rebuilds = 1};
  }
  FlushIncrementalWork("kcore", work);
  return BatchResult{work.vertices_reactivated, work.edges_rerelaxed,
                     work.rebuilds};
}

bool IncrementalKCore::PeelIfStale() const {
  if (!stale_) return false;
  core_ = algo::PeelCoreNumbers(adjacency_);
  stale_ = false;
  ++full_rebuilds_;
  return true;
}

const std::vector<uint32_t>& IncrementalKCore::core_numbers() const {
  PeelIfStale();
  return core_;
}

uint32_t IncrementalKCore::Degeneracy() const {
  const std::vector<uint32_t>& core = core_numbers();
  return core.empty() ? 0 : *std::max_element(core.begin(), core.end());
}

EdgeList IncrementalKCore::Snapshot() const {
  EdgeList el(num_vertices());
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (VertexId v : adjacency_[u]) {
      if (u < v) el.Add(u, v);
    }
  }
  el.EnsureVertices(num_vertices());
  return el;
}

}  // namespace ubigraph::stream
