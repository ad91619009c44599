#include "stream/streaming_graph.h"

namespace ubigraph::stream {

StreamingGraph::StreamingGraph(VertexId num_vertices, StreamingOptions options)
    : options_(options),
      adjacency_(num_vertices),
      degree_(num_vertices, 0),
      uf_(num_vertices) {}

uint64_t StreamingGraph::CountCommonNeighbors(VertexId u, VertexId v) const {
  const auto& a = adjacency_[u];
  const auto& b = adjacency_[v];
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  uint64_t common = 0;
  for (const auto& [w, mult] : small) {
    (void)mult;
    if (w != u && w != v && large.count(w)) ++common;
  }
  return common;
}

Status StreamingGraph::AddEdge(VertexId u, VertexId v, uint64_t timestamp) {
  if (u >= adjacency_.size() || v >= adjacency_.size()) {
    return Status::OutOfRange("vertex out of range");
  }
  if (timestamp < now_) {
    return Status::Invalid("timestamps must be non-decreasing");
  }
  if (u == v) return Status::Invalid("self-loops not supported in the stream");
  now_ = timestamp;
  Expire();

  // New triangles: only when this is the first parallel instance of {u, v}.
  if (adjacency_[u].find(v) == adjacency_[u].end()) {
    triangles_ += CountCommonNeighbors(u, v);
  }
  ++adjacency_[u][v];
  ++adjacency_[v][u];
  ++degree_[u];
  ++degree_[v];
  live_.push_back(TimedEdge{u, v, timestamp});

  if (!dirty_) uf_.Union(u, v);
  return Status::OK();
}

Status StreamingGraph::Advance(uint64_t timestamp) {
  if (timestamp < now_) {
    return Status::Invalid("timestamps must be non-decreasing");
  }
  now_ = timestamp;
  Expire();
  return Status::OK();
}

void StreamingGraph::Expire() {
  uint64_t cutoff = now_ >= options_.window ? now_ - options_.window : 0;
  while (!live_.empty() && live_.front().timestamp < cutoff) {
    TimedEdge e = live_.front();
    live_.pop_front();
    // Remove one multiplicity; triangles only change when the last parallel
    // instance disappears.
    auto itu = adjacency_[e.u].find(e.v);
    if (itu != adjacency_[e.u].end() && itu->second == 1) {
      // Erase first so CountCommonNeighbors doesn't see the dying edge.
      adjacency_[e.u].erase(itu);
      adjacency_[e.v].erase(e.u);
      triangles_ -= CountCommonNeighbors(e.u, e.v);
    } else {
      if (itu != adjacency_[e.u].end()) --itu->second;
      auto itv = adjacency_[e.v].find(e.u);
      if (itv != adjacency_[e.v].end()) --itv->second;
    }
    --degree_[e.u];
    --degree_[e.v];
    dirty_ = true;
    ++expiries_since_rebuild_;
  }
  if (dirty_ && expiries_since_rebuild_ >= options_.rebuild_threshold) {
    RebuildComponents();
  }
}

void StreamingGraph::RebuildComponents() {
  uf_ = algo::UnionFind(uf_.size());
  for (const TimedEdge& e : live_) uf_.Union(e.u, e.v);
  dirty_ = false;
  expiries_since_rebuild_ = 0;
}

uint32_t StreamingGraph::NumComponents() {
  if (dirty_) RebuildComponents();
  return static_cast<uint32_t>(uf_.num_sets());
}

double StreamingGraph::MeanDegree() const {
  if (degree_.empty()) return 0.0;
  uint64_t total = 0;
  for (uint64_t d : degree_) total += d;
  return static_cast<double>(total) / static_cast<double>(degree_.size());
}

EdgeList StreamingGraph::Snapshot() const {
  EdgeList el(num_vertices());
  el.Reserve(live_.size());
  for (const TimedEdge& e : live_) el.Add(e.u, e.v);
  el.EnsureVertices(num_vertices());
  return el;
}

}  // namespace ubigraph::stream
