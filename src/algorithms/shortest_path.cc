#include "algorithms/shortest_path.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <deque>
#include <queue>
#include <span>

#include "algorithms/traversal.h"
#include "common/buckets.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "graph/graph_traits.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ubigraph::algo {

std::vector<VertexId> ShortestPathTree::PathTo(VertexId target) const {
  std::vector<VertexId> path;
  if (target >= parent.size() || distance[target] == kInfDistance) return path;
  VertexId cur = target;
  while (true) {
    path.push_back(cur);
    VertexId p = parent[cur];
    if (p == cur || p == kInvalidVertex) break;
    cur = p;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

namespace {

Status CheckNonNegativeWeights(const CsrGraph& g) {
  for (double w : g.weights()) {
    if (w < 0) return Status::Invalid("Dijkstra requires non-negative weights");
  }
  return Status::OK();
}

struct HeapEntry {
  double dist;
  VertexId v;
  bool operator>(const HeapEntry& o) const { return dist > o.dist; }
};

}  // namespace

Result<ShortestPathTree> Dijkstra(const CsrGraph& g, VertexId source) {
  if (source >= g.num_vertices()) return Status::OutOfRange("source out of range");
  UG_RETURN_NOT_OK(CheckNonNegativeWeights(g));

  ShortestPathTree t;
  t.distance.assign(g.num_vertices(), kInfDistance);
  t.parent.assign(g.num_vertices(), kInvalidVertex);
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  t.distance[source] = 0.0;
  t.parent[source] = source;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > t.distance[u]) continue;  // stale entry
    auto nbrs = g.OutNeighbors(u);
    auto ws = g.OutWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      double nd = d + ws[i];
      if (nd < t.distance[nbrs[i]]) {
        t.distance[nbrs[i]] = nd;
        t.parent[nbrs[i]] = u;
        heap.push({nd, nbrs[i]});
      }
    }
  }
  return t;
}

Result<double> DijkstraPointToPoint(const CsrGraph& g, VertexId source,
                                    VertexId target) {
  if (source >= g.num_vertices() || target >= g.num_vertices()) {
    return Status::OutOfRange("endpoint out of range");
  }
  UG_RETURN_NOT_OK(CheckNonNegativeWeights(g));
  std::vector<double> dist(g.num_vertices(), kInfDistance);
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  dist[source] = 0.0;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == target) return d;
    auto nbrs = g.OutNeighbors(u);
    auto ws = g.OutWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      double nd = d + ws[i];
      if (nd < dist[nbrs[i]]) {
        dist[nbrs[i]] = nd;
        heap.push({nd, nbrs[i]});
      }
    }
  }
  return kInfDistance;
}

Result<ShortestPathTree> BellmanFord(const CsrGraph& g, VertexId source) {
  if (source >= g.num_vertices()) return Status::OutOfRange("source out of range");
  const VertexId n = g.num_vertices();
  ShortestPathTree t;
  t.distance.assign(n, kInfDistance);
  t.parent.assign(n, kInvalidVertex);
  t.distance[source] = 0.0;
  t.parent[source] = source;

  bool changed = true;
  for (VertexId round = 0; round < n && changed; ++round) {
    changed = false;
    for (VertexId u = 0; u < n; ++u) {
      if (t.distance[u] == kInfDistance) continue;
      auto nbrs = g.OutNeighbors(u);
      auto ws = g.OutWeights(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        double nd = t.distance[u] + ws[i];
        if (nd < t.distance[nbrs[i]]) {
          t.distance[nbrs[i]] = nd;
          t.parent[nbrs[i]] = u;
          changed = true;
        }
      }
    }
  }
  if (changed) {
    // An n-th improving round means a reachable negative cycle.
    return Status::Invalid("graph contains a negative cycle reachable from source");
  }
  return t;
}

namespace {

/// Frontier entries per relax chunk. Chunk boundaries depend only on this
/// grain, so insertion-buffer merge order — and with it every bucket's
/// contents — is identical at any thread count.
constexpr uint64_t kSsspGrain = 256;

struct SsspTally {
  uint64_t relaxations = 0;   // tight-edge relax attempts
  uint64_t improvements = 0;  // successful distance writes
};

/// Delta-stepping over the shared BucketStructure. The distance array is the
/// only cross-thread state during a relax phase: writes go through a
/// CAS-min on std::atomic_ref<double> and reads are relaxed atomic loads
/// ("relaxed-write"); a popped entry whose vertex has left the bucket is
/// discarded by the serial recheck between phases. The serial path (one
/// thread) runs the identical chunk decomposition with plain loads/stores.
template <WeightedNeighborRangeGraph G>
Result<ShortestPathTree> DeltaSteppingEngine(const G& g, VertexId source,
                                             const SsspOptions& options) {
  const VertexId n = g.num_vertices();
  if (source >= n) return Status::OutOfRange("source out of range");

  // One serial edge sweep both validates weights and feeds the delta
  // auto-tune (average edge weight ~= one bucket per expected hop).
  double weight_sum = 0.0;
  for (VertexId u = 0; u < n; ++u) {
    for (double w : g.OutWeights(u)) {
      if (w < 0) {
        return Status::Invalid("DeltaSteppingSssp requires non-negative weights");
      }
      weight_sum += w;
    }
  }
  double delta = options.delta;
  if (delta <= 0) {
    delta = g.num_edges() > 0 ? weight_sum / static_cast<double>(g.num_edges())
                              : 1.0;
    if (delta <= 0) delta = 1.0;  // all-zero weights
  }

  obs::ScopedTrace span("DeltaSteppingSssp");
  Timer timer;

  const unsigned threads = ResolveNumThreads(options.num_threads);

  ShortestPathTree t;
  t.distance.assign(n, kInfDistance);
  t.parent.assign(n, kInvalidVertex);
  t.distance[source] = 0.0;
  t.parent[source] = source;
  std::vector<double>& dist = t.distance;

  // Bucket of a *finite* distance, clamped so adversarial weights cannot
  // overflow the index space.
  auto bucket_of = [delta](double d) {
    return static_cast<uint64_t>(std::min(d / delta, 9e18));
  };

  BucketStructure buckets;
  buckets.Insert(0, source);
  std::vector<uint8_t> settled_flag(n, 0);
  std::vector<VertexId> popped, frontier, settled;
  SsspTally tally;
  uint64_t stale_pops = 0;

  // Relaxes the light (w <= delta) or heavy (w > delta) edges of `front`.
  // New (bucket, vertex) entries collect in per-chunk buffers merged in
  // ascending chunk order.
  auto relax = [&](std::span<const VertexId> front, bool light) {
    if (front.empty()) return;
    const uint64_t chunks = NumChunks(0, front.size(), kSsspGrain);
    // A single chunk runs on the caller alone (the fork width is capped at
    // the chunk count), so it needs no atomics.
    const bool concurrent = threads > 1 && chunks > 1;
    std::vector<std::vector<BucketItem>> buffers(chunks);
    std::vector<SsspTally> tallies(chunks);
    auto run_chunk = [&](uint64_t c) {
      const uint64_t b = c * kSsspGrain;
      const uint64_t e = std::min<uint64_t>(b + kSsspGrain, front.size());
      auto& buf = buffers[c];
      auto& tl = tallies[c];
      for (uint64_t idx = b; idx < e; ++idx) {
        const VertexId u = front[idx];
        const double du =
            concurrent ? std::atomic_ref<double>(dist[u]).load(
                             std::memory_order_relaxed)
                       : dist[u];
        auto nbrs = g.OutNeighbors(u);
        auto ws = g.OutWeights(u);
        for (size_t i = 0; i < nbrs.size(); ++i) {
          const double w = ws[i];
          if (light ? w > delta : w <= delta) continue;
          const VertexId v = nbrs[i];
          const double nd = du + w;
          ++tl.relaxations;
          if (concurrent) {
            std::atomic_ref<double> dv(dist[v]);
            double cur = dv.load(std::memory_order_relaxed);
            while (nd < cur) {
              if (dv.compare_exchange_weak(cur, nd, std::memory_order_relaxed)) {
                ++tl.improvements;
                buf.emplace_back(bucket_of(nd), v);
                break;
              }
            }
          } else if (nd < dist[v]) {
            dist[v] = nd;
            ++tl.improvements;
            buf.emplace_back(bucket_of(nd), v);
          }
        }
      }
    };
    ParallelFor(threads, 0, chunks, run_chunk, Schedule::kDynamic, 1);
    for (uint64_t c = 0; c < chunks; ++c) {
      buckets.InsertBatch(buffers[c]);
      tally.relaxations += tallies[c].relaxations;
      tally.improvements += tallies[c].improvements;
    }
  };

  uint64_t bkt;
  while ((bkt = buckets.PopNextBucket(&popped)) != BucketStructure::kNoBucket) {
    settled.clear();
    for (;;) {  // light sub-rounds until bucket `bkt` stops refilling
      frontier.clear();
      for (VertexId v : popped) {
        if (bucket_of(dist[v]) != bkt) {  // improved past this bucket: stale
          ++stale_pops;
          continue;
        }
        frontier.push_back(v);
        if (!settled_flag[v]) {  // first settle; heavy edges relax once below
          settled_flag[v] = 1;
          settled.push_back(v);
        }
      }
      relax(frontier, /*light=*/true);
      if (!buckets.PopSame(bkt, &popped)) break;
    }
    relax(settled, /*light=*/false);
  }

  // Parent derivation, decoupled from relaxation order so the tree is
  // deterministic: every v takes its min-id predecessor over strictly
  // improving tight edges (dist[u] + w == dist[v], w > 0) — acyclic because
  // dist strictly decreases along parent chains.
  auto assign_strict = [&](VertexId u) {
    const double du = dist[u];
    if (du == kInfDistance) return;
    auto nbrs = g.OutNeighbors(u);
    auto ws = g.OutWeights(u);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      const VertexId v = nbrs[i];
      if (v == source || ws[i] <= 0 || du + ws[i] != dist[v]) continue;
      if (threads > 1) {
        std::atomic_ref<VertexId> pv(t.parent[v]);
        VertexId cur = pv.load(std::memory_order_relaxed);
        while (u < cur &&
               !pv.compare_exchange_weak(cur, u, std::memory_order_relaxed)) {
        }
      } else if (u < t.parent[v]) {
        t.parent[v] = u;
      }
    }
  };
  ParallelFor(threads, 0, n, [&](uint64_t u) { assign_strict(VertexId(u)); },
              Schedule::kDynamic);
  // Vertices tied only through zero-weight edges get parents from a
  // deterministic BFS over the tie edges, seeded at already-anchored
  // vertices in ascending id order (no random weight distribution produces
  // ties, so this pass is normally a single scan).
  bool needs_tie_pass = false;
  for (VertexId v = 0; v < n && !needs_tie_pass; ++v) {
    needs_tie_pass = dist[v] != kInfDistance && t.parent[v] == kInvalidVertex;
  }
  if (needs_tie_pass) {
    std::deque<VertexId> queue;
    for (VertexId v = 0; v < n; ++v) {
      if (t.parent[v] != kInvalidVertex) queue.push_back(v);
    }
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      auto nbrs = g.OutNeighbors(u);
      auto ws = g.OutWeights(u);
      for (size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId v = nbrs[i];
        if (v == source || ws[i] != 0 || dist[u] != dist[v] ||
            t.parent[v] != kInvalidVertex) {
          continue;
        }
        t.parent[v] = u;
        queue.push_back(v);
      }
    }
  }

  if (obs::Enabled()) {
    const BucketStats& bs = buckets.stats();
    obs::AddCounter("sssp.delta.runs", 1);
    obs::AddCounter("sssp.delta.buckets_popped",
                    static_cast<int64_t>(bs.buckets_popped));
    obs::AddCounter("sssp.delta.relaxations",
                    static_cast<int64_t>(tally.relaxations));
    obs::AddCounter("sssp.delta.improvements",
                    static_cast<int64_t>(tally.improvements));
    obs::AddCounter("sssp.delta.wasted",
                    static_cast<int64_t>(stale_pops));
    obs::RecordLatency("sssp.delta.latency_us",
                       static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  }
  return t;
}

}  // namespace

Result<ShortestPathTree> DeltaSteppingSssp(const CsrGraph& g, VertexId source,
                                           const SsspOptions& options) {
  return DeltaSteppingEngine(g, source, options);
}

Result<uint32_t> BidirectionalBfsDistance(const CsrGraph& g, VertexId source,
                                          VertexId target) {
  if (source >= g.num_vertices() || target >= g.num_vertices()) {
    return Status::OutOfRange("endpoint out of range");
  }
  if (source == target) return 0u;
  UG_RETURN_NOT_OK(g.RequireInEdges("BidirectionalBfsDistance"));

  std::vector<uint32_t> dist_f(g.num_vertices(), UINT32_MAX);
  std::vector<uint32_t> dist_b(g.num_vertices(), UINT32_MAX);
  std::deque<VertexId> qf{source}, qb{target};
  dist_f[source] = 0;
  dist_b[target] = 0;
  uint32_t best = UINT32_MAX;

  auto expand = [&](std::deque<VertexId>* q, std::vector<uint32_t>* mine,
                    const std::vector<uint32_t>& other, bool forward) {
    size_t level_size = q->size();
    for (size_t k = 0; k < level_size; ++k) {
      VertexId u = q->front();
      q->pop_front();
      auto nbrs = forward ? g.OutNeighbors(u) : g.InNeighbors(u);
      for (VertexId v : nbrs) {
        if ((*mine)[v] != UINT32_MAX) continue;
        (*mine)[v] = (*mine)[u] + 1;
        if (other[v] != UINT32_MAX) {
          best = std::min(best, (*mine)[v] + other[v]);
        }
        q->push_back(v);
      }
    }
  };

  uint32_t frontier_depth = 0;
  while (!qf.empty() && !qb.empty()) {
    // Stop once the sum of settled depths cannot beat the best meeting point.
    if (best != UINT32_MAX && frontier_depth + 1 >= best) break;
    if (qf.size() <= qb.size()) {
      expand(&qf, &dist_f, dist_b, /*forward=*/true);
    } else {
      expand(&qb, &dist_b, dist_f, /*forward=*/false);
    }
    ++frontier_depth;
  }
  return best;
}

namespace {

/// Dijkstra that ignores banned vertices and banned arcs (by CSR position).
/// Returns the path source..target and its cost, or an empty path.
WeightedPath ConstrainedDijkstra(const CsrGraph& g, VertexId source,
                                 VertexId target,
                                 const std::vector<bool>& banned_vertex,
                                 const std::vector<bool>& banned_arc) {
  const VertexId n = g.num_vertices();
  std::vector<double> dist(n, kInfDistance);
  std::vector<VertexId> parent(n, kInvalidVertex);
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  dist[source] = 0.0;
  parent[source] = source;
  heap.push({0.0, source});
  while (!heap.empty()) {
    auto [d, u] = heap.top();
    heap.pop();
    if (d > dist[u]) continue;
    if (u == target) break;
    auto nbrs = g.OutNeighbors(u);
    auto ws = g.OutWeights(u);
    uint64_t base = g.offsets()[u];
    for (size_t i = 0; i < nbrs.size(); ++i) {
      VertexId v = nbrs[i];
      if (banned_vertex[v] || banned_arc[base + i]) continue;
      double nd = d + ws[i];
      if (nd < dist[v]) {
        dist[v] = nd;
        parent[v] = u;
        heap.push({nd, v});
      }
    }
  }
  WeightedPath path;
  if (dist[target] == kInfDistance) return path;
  path.cost = dist[target];
  VertexId cur = target;
  while (true) {
    path.vertices.push_back(cur);
    if (cur == source) break;
    cur = parent[cur];
  }
  std::reverse(path.vertices.begin(), path.vertices.end());
  return path;
}

}  // namespace

Result<std::vector<WeightedPath>> KShortestPaths(const CsrGraph& g,
                                                 VertexId source, VertexId target,
                                                 uint32_t k) {
  if (source >= g.num_vertices() || target >= g.num_vertices()) {
    return Status::OutOfRange("endpoint out of range");
  }
  if (k == 0) return Status::Invalid("k must be positive");
  UG_RETURN_NOT_OK(CheckNonNegativeWeights(g));

  std::vector<bool> no_vertex(g.num_vertices(), false);
  std::vector<bool> no_arc(g.num_edges(), false);

  std::vector<WeightedPath> result;
  WeightedPath first = ConstrainedDijkstra(g, source, target, no_vertex, no_arc);
  if (first.vertices.empty()) return result;  // disconnected: zero paths
  result.push_back(std::move(first));

  // Candidate pool of deviation paths (Yen). Small k: linear scan suffices.
  std::vector<WeightedPath> candidates;
  auto same_path = [](const WeightedPath& a, const WeightedPath& b) {
    return a.vertices == b.vertices;
  };

  while (result.size() < k) {
    const WeightedPath& prev = result.back();
    // For each spur vertex along the previous path...
    for (size_t spur_idx = 0; spur_idx + 1 < prev.vertices.size(); ++spur_idx) {
      VertexId spur = prev.vertices[spur_idx];
      // Root = prefix up to the spur.
      std::vector<VertexId> root(prev.vertices.begin(),
                                 prev.vertices.begin() +
                                     static_cast<ptrdiff_t>(spur_idx) + 1);
      std::fill(no_vertex.begin(), no_vertex.end(), false);
      std::fill(no_arc.begin(), no_arc.end(), false);
      // Ban arcs used by any accepted path sharing this root.
      for (const WeightedPath& p : result) {
        if (p.vertices.size() <= spur_idx + 1) continue;
        if (!std::equal(root.begin(), root.end(), p.vertices.begin())) continue;
        VertexId from = p.vertices[spur_idx];
        VertexId to = p.vertices[spur_idx + 1];
        auto nbrs = g.OutNeighbors(from);
        uint64_t base = g.offsets()[from];
        for (size_t i = 0; i < nbrs.size(); ++i) {
          if (nbrs[i] == to) no_arc[base + i] = true;
        }
      }
      // Ban root vertices except the spur (loopless).
      for (size_t i = 0; i < spur_idx; ++i) no_vertex[root[i]] = true;

      WeightedPath spur_path =
          ConstrainedDijkstra(g, spur, target, no_vertex, no_arc);
      if (spur_path.vertices.empty()) continue;

      // Stitch root + spur path; root cost = sum of its arc weights.
      WeightedPath total;
      total.vertices = root;
      total.vertices.pop_back();
      total.vertices.insert(total.vertices.end(), spur_path.vertices.begin(),
                            spur_path.vertices.end());
      double root_cost = 0.0;
      for (size_t i = 0; i + 1 < root.size(); ++i) {
        // Cheapest arc between consecutive root vertices (matches Dijkstra).
        auto nbrs = g.OutNeighbors(root[i]);
        auto ws = g.OutWeights(root[i]);
        double best = kInfDistance;
        for (size_t j = 0; j < nbrs.size(); ++j) {
          if (nbrs[j] == root[i + 1]) best = std::min(best, ws[j]);
        }
        root_cost += best;
      }
      total.cost = root_cost + spur_path.cost;

      bool duplicate = false;
      for (const WeightedPath& c : candidates) {
        if (same_path(c, total)) {
          duplicate = true;
          break;
        }
      }
      for (const WeightedPath& r : result) {
        if (same_path(r, total)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) candidates.push_back(std::move(total));
    }
    if (candidates.empty()) break;
    size_t best = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
      if (candidates[i].cost < candidates[best].cost) best = i;
    }
    result.push_back(candidates[best]);
    candidates.erase(candidates.begin() + static_cast<ptrdiff_t>(best));
  }
  return result;
}

std::vector<std::vector<uint32_t>> AllPairsHopDistances(const CsrGraph& g) {
  std::vector<std::vector<uint32_t>> out;
  out.reserve(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out.push_back(BfsDistances(g, v));
  }
  return out;
}

}  // namespace ubigraph::algo
