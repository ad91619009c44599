#include "algorithms/shortest_path.h"

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <deque>
#include <queue>
#include <utility>

#include "algorithms/traversal.h"
#include "common/buckets.h"
#include "common/parallel.h"
#include "common/timer.h"
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

/// NaN fails like a negative weight, as in DeltaSteppingSssp, so the two
/// kernels accept the same graphs. A unit-weight CSR has no array to check.
Status CheckNonNegativeWeights(const CsrGraph& g) {
  for (double w : g.weights()) {
    if (!(w >= 0)) return Status::Invalid("Dijkstra requires non-negative weights");
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

/// Upper bound on the ring's span in buckets: delta is raised to at least
/// (largest finite weight) / kRingCap, so one arc spans at most kRingCap
/// buckets and bucket indices stay below kRingCap * V, far from 2^53.
constexpr double kRingCap = 4096;

/// Frontier entries per relax chunk of a forked round.
constexpr uint64_t kSsspGrain = 256;

/// One forked round's output for one chunk: the (bucket, vertex) entries it
/// pushed, merged in chunk order, and its tallies. Cache-line aligned so
/// neighbouring chunks' pushes do not share a line.
struct alignas(64) ChunkOut {
  std::vector<BucketItem> items;
  uint64_t relaxations = 0;
  uint64_t improvements = 0;
  uint64_t stale = 0;
};

/// Delta-stepping over a bounded BucketStructure ring. Each popped vertex
/// whose distance still lies in the popped bucket relaxes all of its arcs in
/// one pass and pushes every improved vertex into the bucket of its new
/// distance, which is never below the popped one; an entry whose vertex has
/// since moved to a lower bucket is stale and skipped. The algorithm is
/// label-correcting, so any delta reaches the same distances. A round whose
/// frontier has fewer than kSerialRoundArcs arcs runs on the caller with
/// plain loads and stores; a larger one forks, writing distances through a
/// relaxed CAS-min on std::atomic_ref<double> into per-chunk buffers that
/// are reused across rounds. `weight(e)` is arc e's weight.
template <typename WeightFn>
Result<ShortestPathTree> DeltaSteppingEngine(const CsrGraph& g, VertexId source,
                                             const SsspOptions& options,
                                             WeightFn weight) {
  const VertexId n = g.num_vertices();
  if (source >= n) return Status::OutOfRange("source out of range");

  // One sweep validates the weights (NaN fails like a negative weight) and
  // finds the smallest positive and the largest finite weight. +inf arcs
  // are legal: they never improve a distance. Its chunks are kSerialPassArcs
  // long, so a graph below that cutoff sweeps on the caller.
  struct WeightScan {
    bool valid = true;
    bool has_zero = false;
    double min_positive = kInfDistance;
    double max_finite = 0.0;
  };
  const unsigned threads = ResolveNumThreads(options.num_threads);
  const WeightScan scan = ParallelReduce(
      threads, 0, g.num_edges(), WeightScan{},
      [&weight](uint64_t b, uint64_t e) {
        WeightScan p;
        for (uint64_t i = b; i < e; ++i) {
          const double w = weight(i);
          p.valid &= w >= 0;
          p.has_zero |= w == 0;
          if (w > 0 && w < p.min_positive) p.min_positive = w;
          if (w > p.max_finite && w != kInfDistance) p.max_finite = w;
        }
        return p;
      },
      [](WeightScan a, WeightScan b) {
        return WeightScan{a.valid && b.valid, a.has_zero || b.has_zero,
                          std::min(a.min_positive, b.min_positive),
                          std::max(a.max_finite, b.max_finite)};
      },
      kSerialPassArcs);
  if (!scan.valid) {
    return Status::Invalid("DeltaSteppingSssp requires non-negative weights");
  }
  const double max_finite = scan.max_finite;
  // Width: the smallest positive weight makes every arc but zero-weight
  // ones leave the popped bucket, so most vertices are relaxed once.
  double delta = options.delta > 0                    ? options.delta
                 : scan.min_positive != kInfDistance ? scan.min_positive
                                                     : 1.0;
  // Raised so an arc spans at most kRingCap buckets and 1 / delta is finite.
  delta = std::max({delta, max_finite / kRingCap, DBL_MIN});
  const double inv_delta = 1.0 / delta;
  auto bucket_of = [inv_delta](double d) {
    return static_cast<uint64_t>(d * inv_delta);
  };

  obs::ScopedTrace span("DeltaSteppingSssp");
  Timer timer;

  ShortestPathTree t;
  t.distance.assign(n, kInfDistance);
  t.parent.assign(n, kInvalidVertex);
  t.distance[source] = 0.0;
  t.parent[source] = source;
  double* dist = t.distance.data();
  const uint64_t* offsets = g.offsets().data();
  const VertexId* targets = g.targets().data();

  // While bucket b is processed every live entry lies in [b, b + span):
  // an arc reaches at most max_finite / delta buckets further, plus one for
  // the popped distance's offset inside its bucket and one for rounding.
  BucketStructure buckets(bucket_of(max_finite) + 3);
  buckets.Insert(0, source);
  std::vector<VertexId> popped;
  std::vector<ChunkOut> chunk_out;
  uint64_t relaxations = 0, improvements = 0, stale = 0, forked_rounds = 0;

  uint64_t bkt = 0;
  // Whether a vertex lowered from `old` into bucket nb needs a new entry. An
  // entry already waits in nb when `old` lay there too, unless nb is the
  // bucket being processed, whose entries may have been relaxed already.
  auto needs_entry = [&](double old, uint64_t nb) {
    return nb == bkt || old == kInfDistance || bucket_of(old) != nb;
  };
  while ((bkt = buckets.PopNextBucket(&popped)) != BucketStructure::kNoBucket) {
    uint64_t arcs = 0;
    if (threads > 1) {
      for (VertexId u : popped) {
        arcs += offsets[u + 1] - offsets[u];
        if (arcs >= kSerialRoundArcs) break;
      }
    }
    if (arcs < kSerialRoundArcs) {
      for (VertexId u : popped) {
        const double du = dist[u];
        if (bucket_of(du) != bkt) {  // improved past this bucket: stale
          ++stale;
          continue;
        }
        const uint64_t end = offsets[u + 1];
        relaxations += end - offsets[u];
        for (uint64_t e = offsets[u]; e < end; ++e) {
          const VertexId v = targets[e];
          const double nd = du + weight(e);
          const double old = dist[v];
          if (nd < old) {
            dist[v] = nd;
            ++improvements;
            const uint64_t nb = bucket_of(nd);
            if (needs_entry(old, nb)) buckets.Insert(nb, v);
          }
        }
      }
      continue;
    }

    ++forked_rounds;
    const uint64_t chunks = NumChunks(0, popped.size(), kSsspGrain);
    if (chunk_out.size() < chunks) chunk_out.resize(chunks);
    auto run_chunk = [&](uint64_t c) {
      ChunkOut& out = chunk_out[c];
      const uint64_t b = c * kSsspGrain;
      const uint64_t e = std::min<uint64_t>(b + kSsspGrain, popped.size());
      for (uint64_t idx = b; idx < e; ++idx) {
        const VertexId u = popped[idx];
        const double du =
            std::atomic_ref<double>(dist[u]).load(std::memory_order_relaxed);
        if (bucket_of(du) != bkt) {
          ++out.stale;
          continue;
        }
        const uint64_t end = offsets[u + 1];
        out.relaxations += end - offsets[u];
        for (uint64_t a = offsets[u]; a < end; ++a) {
          const VertexId v = targets[a];
          const double nd = du + weight(a);
          std::atomic_ref<double> dv(dist[v]);
          double old = dv.load(std::memory_order_relaxed);
          while (nd < old) {
            if (dv.compare_exchange_weak(old, nd, std::memory_order_relaxed)) {
              ++out.improvements;
              const uint64_t nb = bucket_of(nd);
              if (needs_entry(old, nb)) out.items.emplace_back(nb, v);
              break;
            }
          }
        }
      }
    };
    ParallelFor(threads, 0, chunks, run_chunk, Schedule::kDynamic, 1);
    for (uint64_t c = 0; c < chunks; ++c) {
      ChunkOut& out = chunk_out[c];
      buckets.InsertBatch(out.items);
      out.items.clear();
      relaxations += std::exchange(out.relaxations, 0);
      improvements += std::exchange(out.improvements, 0);
      stale += std::exchange(out.stale, 0);
    }
  }

  // Parent derivation, decoupled from relaxation order so the tree is
  // deterministic: every reached v takes its min-id predecessor over
  // strictly improving tight edges (dist[u] + w == dist[v], w > 0) —
  // acyclic because dist strictly decreases along parent chains.
  VertexId* parent = t.parent.data();
  const unsigned pass_threads = g.num_edges() < kSerialPassArcs ? 1 : threads;
  ParallelFor(
      pass_threads, 0, n,
      [&](uint64_t i) {
        const VertexId u = static_cast<VertexId>(i);
        const double du = dist[u];
        if (du == kInfDistance) return;
        const uint64_t end = offsets[u + 1];
        for (uint64_t e = offsets[u]; e < end; ++e) {
          const VertexId v = targets[e];
          const double w = weight(e);
          const double nd = du + w;
          // An arc into an unreached vertex is "tight" when nd is +inf.
          if (v == source || w <= 0 || nd != dist[v] || nd == kInfDistance) {
            continue;
          }
          if (pass_threads > 1) {
            std::atomic_ref<VertexId> pv(parent[v]);
            VertexId cur = pv.load(std::memory_order_relaxed);
            while (u < cur &&
                   !pv.compare_exchange_weak(cur, u, std::memory_order_relaxed)) {
            }
          } else if (u < parent[v]) {
            parent[v] = u;
          }
        }
      },
      Schedule::kDynamic);
  // Vertices tied only through zero-weight edges get parents from a
  // deterministic BFS over the tie edges, seeded at already-anchored
  // vertices in ascending id order. Without zero-weight arcs the arc that
  // last lowered a vertex is a strict tight edge, so every reached vertex
  // already has a parent.
  bool needs_tie_pass = false;
  for (VertexId v = 0; scan.has_zero && v < n && !needs_tie_pass; ++v) {
    needs_tie_pass = dist[v] != kInfDistance && parent[v] == kInvalidVertex;
  }
  if (needs_tie_pass) {
    std::deque<VertexId> queue;
    for (VertexId v = 0; v < n; ++v) {
      if (parent[v] != kInvalidVertex) queue.push_back(v);
    }
    while (!queue.empty()) {
      const VertexId u = queue.front();
      queue.pop_front();
      for (uint64_t e = offsets[u]; e < offsets[u + 1]; ++e) {
        const VertexId v = targets[e];
        if (v == source || weight(e) != 0 || dist[u] != dist[v] ||
            parent[v] != kInvalidVertex) {
          continue;
        }
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }

  if (obs::Enabled()) {
    obs::AddCounter("sssp.delta.runs", 1);
    obs::AddCounter("sssp.delta.buckets_popped",
                    static_cast<int64_t>(buckets.stats().buckets_popped));
    obs::AddCounter("sssp.delta.forked_rounds",
                    static_cast<int64_t>(forked_rounds));
    obs::AddCounter("sssp.delta.relaxations",
                    static_cast<int64_t>(relaxations));
    obs::AddCounter("sssp.delta.improvements",
                    static_cast<int64_t>(improvements));
    obs::AddCounter("sssp.delta.wasted", static_cast<int64_t>(stale));
    obs::RecordLatency("sssp.delta.latency_us",
                       static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  }
  return t;
}

}  // namespace

Result<ShortestPathTree> DeltaSteppingSssp(const CsrGraph& g, VertexId source,
                                           const SsspOptions& options) {
  // A unit-weight CSR stores no weight array: each of its arcs weighs 1.0.
  if (g.weights().empty()) {
    return DeltaSteppingEngine(g, source, options, [](uint64_t) { return 1.0; });
  }
  const double* weights = g.weights().data();
  return DeltaSteppingEngine(g, source, options,
                             [weights](uint64_t e) { return weights[e]; });
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
