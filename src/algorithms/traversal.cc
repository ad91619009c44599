#include "algorithms/traversal.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <deque>
#include <utility>

#include "common/parallel.h"
#include "graph/compressed_csr.h"
#include "graph/frontier.h"
#include "graph/graph_traits.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ubigraph::algo {

namespace {

/// Flushes BFS counters derived from the finished distance array: one extra
/// O(V) pass when instrumentation is on, zero changes to the traversal loops
/// themselves. Every reached vertex is expanded exactly once, so edges
/// relaxed == sum of out-degrees over the reached set, and level sizes are
/// the frontier sizes.
template <NeighborRangeGraph G>
void FlushBfsStats(const G& g, const std::vector<uint32_t>& dist) {
  if (!obs::Enabled()) return;
  uint64_t edges_relaxed = 0, visited = 0;
  uint32_t max_depth = 0;
  std::vector<int64_t> level_sizes;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (dist[v] == kUnreachable) continue;
    ++visited;
    edges_relaxed += g.OutDegree(v);
    if (dist[v] >= level_sizes.size()) level_sizes.resize(dist[v] + 1, 0);
    ++level_sizes[dist[v]];
    max_depth = std::max(max_depth, dist[v]);
  }
  obs::AddCounter("bfs.runs", 1);
  obs::AddCounter("bfs.vertices_visited", static_cast<int64_t>(visited));
  obs::AddCounter("bfs.edges_relaxed", static_cast<int64_t>(edges_relaxed));
  obs::AddCounter("bfs.rounds", visited == 0 ? 0 : max_depth + 1);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::LatencyHistogram* frontier = reg.GetHistogram("bfs.frontier_size");
  for (int64_t size : level_sizes) frontier->Record(size);
}

/// The seed serial BFS, generalized to any number of depth-0 sources.
template <NeighborRangeGraph G>
std::vector<uint32_t> SerialBfs(const G& g,
                                std::span<const VertexId> sources) {
  std::vector<uint32_t> dist(g.num_vertices(), kUnreachable);
  std::deque<VertexId> queue;
  for (VertexId s : sources) {
    if (s < g.num_vertices() && dist[s] == kUnreachable) {
      dist[s] = 0;
      queue.push_back(s);
    }
  }
  while (!queue.empty()) {
    VertexId u = queue.front();
    queue.pop_front();
    for (VertexId v : g.OutNeighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

/// One hybrid-BFS round's bookkeeping, flushed to obs at end of run.
struct RoundStat {
  bool pull = false;
  uint64_t frontier_size = 0;
  uint64_t edges_scanned = 0;
};

/// A finished engine run: the distances plus the per-round bookkeeping that
/// HybridBfs (not BfsDistances) flushes as bfs.hybrid.*.
struct EngineRun {
  std::vector<uint32_t> dist;
  std::vector<RoundStat> rounds;
  uint64_t switches = 0;
};

/// The direction-optimizing engine. `threads <= 1` is the exact-serial path:
/// the same round bodies run inline over the full range, with plain
/// (non-atomic) claims. Distances are unique per vertex, so every mode and
/// thread count produces a bitwise-identical array.
template <NeighborRangeGraph G>
EngineRun HybridBfsEngine(const G& g, std::span<const VertexId> sources,
                          const HybridBfsOptions& opt, unsigned threads) {
  const VertexId n = g.num_vertices();
  const bool parallel = threads > 1;
  EngineRun run;
  std::vector<uint32_t>& dist = run.dist;
  dist.assign(n, kUnreachable);
  Frontier cur(n), next(n);
  uint64_t frontier_edges = 0;
  for (VertexId s : sources) {
    if (s < n && dist[s] == kUnreachable) {
      dist[s] = 0;
      cur.Push(s);
      frontier_edges += g.OutDegree(s);
    }
  }

  // Switch thresholds from the standard edge-work heuristic: pull once the
  // frontier's out-edges exceed |E|/alpha, push again once the frontier
  // shrinks below |V|/beta.
  const uint64_t pull_edges =
      static_cast<uint64_t>(static_cast<double>(g.num_edges()) / opt.alpha);
  const uint64_t push_vertices =
      static_cast<uint64_t>(static_cast<double>(n) / opt.beta);

  bool pull = opt.direction == TraversalDirection::kPull;
  uint32_t depth = 0;

  while (!cur.empty()) {
    ++depth;
    if (opt.direction == TraversalDirection::kAuto) {
      if (!pull && frontier_edges > pull_edges) {
        pull = true;
        ++run.switches;
      } else if (pull && cur.size() < push_vertices) {
        pull = false;
        ++run.switches;
      }
    }
    RoundStat stat;
    stat.pull = pull;
    stat.frontier_size = cur.size();

    if (pull) {
      cur.ToDense();
      next.ClearDense();
      // found vertices, edges scanned, out-edges of the new frontier.
      using Partial = std::array<uint64_t, 3>;
      auto round = [&](uint64_t b, uint64_t e) {
        Partial p{0, 0, 0};
        for (uint64_t i = b; i < e; ++i) {
          VertexId v = static_cast<VertexId>(i);
          if (dist[v] != kUnreachable) continue;
          for (VertexId u : g.InNeighbors(v)) {
            ++p[1];
            if (cur.Test(u)) {
              dist[v] = depth;
              if (parallel) {
                next.AtomicTestAndSet(v);
              } else {
                next.Set(v);
              }
              ++p[0];
              p[2] += g.OutDegree(v);
              break;
            }
          }
        }
        return p;
      };
      Partial total;
      if (!parallel) {
        total = round(0, n);
      } else {
        total = ParallelReduce(
            threads, 0, n, Partial{0, 0, 0}, round,
            [](Partial a, Partial b) {
              return Partial{a[0] + b[0], a[1] + b[1], a[2] + b[2]};
            });
      }
      next.SetCount(total[0]);
      stat.edges_scanned = total[1];
      frontier_edges = total[2];
    } else {
      cur.ToSparse();
      auto verts = cur.Vertices();
      // New frontier list, plus its out-edge count for the heuristic.
      struct Partial {
        std::vector<VertexId> found;
        uint64_t scanned = 0;
        uint64_t next_edges = 0;
      };
      Partial total;
      if (!parallel || frontier_edges < kSerialRoundArcs) {
        for (VertexId u : verts) {
          for (VertexId v : g.OutNeighbors(u)) {
            ++total.scanned;
            if (dist[v] == kUnreachable) {
              dist[v] = depth;
              total.found.push_back(v);
              total.next_edges += g.OutDegree(v);
            }
          }
        }
      } else {
        total = ParallelReduce(
            threads, 0, verts.size(), Partial{},
            [&](uint64_t b, uint64_t e) {
              Partial p;
              for (uint64_t i = b; i < e; ++i) {
                for (VertexId v : g.OutNeighbors(verts[i])) {
                  ++p.scanned;
                  uint32_t expected = kUnreachable;
                  if (std::atomic_ref<uint32_t>(dist[v]).compare_exchange_strong(
                          expected, depth, std::memory_order_relaxed)) {
                    p.found.push_back(v);
                    p.next_edges += g.OutDegree(v);
                  }
                }
              }
              return p;
            },
            [](Partial a, Partial b) {
              a.found.insert(a.found.end(), b.found.begin(), b.found.end());
              a.scanned += b.scanned;
              a.next_edges += b.next_edges;
              return a;
            },
            /*grain=*/256);
      }
      stat.edges_scanned = total.scanned;
      frontier_edges = total.next_edges;
      next.Clear();
      next.AdoptList(std::move(total.found));
    }
    std::swap(cur, next);
    run.rounds.push_back(stat);
  }
  return run;
}

void FlushHybridStats(const EngineRun& run) {
  if (!obs::Enabled()) return;
  uint64_t push_rounds = 0, pull_rounds = 0, edges = 0;
  obs::LatencyHistogram* round_edges =
      obs::MetricsRegistry::Global().GetHistogram("bfs.hybrid.round_edges");
  for (const RoundStat& r : run.rounds) {
    (r.pull ? pull_rounds : push_rounds) += 1;
    edges += r.edges_scanned;
    round_edges->Record(static_cast<int64_t>(r.edges_scanned));
  }
  obs::AddCounter("bfs.hybrid.runs", 1);
  obs::AddCounter("bfs.hybrid.push_rounds", static_cast<int64_t>(push_rounds));
  obs::AddCounter("bfs.hybrid.pull_rounds", static_cast<int64_t>(pull_rounds));
  obs::AddCounter("bfs.hybrid.switches", static_cast<int64_t>(run.switches));
  obs::AddCounter("bfs.hybrid.edges_scanned", static_cast<int64_t>(edges));
}

template <NeighborRangeGraph G>
Result<std::vector<uint32_t>> HybridMultiSourceBfsImpl(
    const G& g, std::span<const VertexId> sources, HybridBfsOptions options) {
  if (options.direction != TraversalDirection::kPush) {
    UG_RETURN_NOT_OK(g.RequireInEdges("HybridBfs (pull/auto direction)"));
  }
  if (!(options.alpha > 0.0) || !(options.beta > 0.0)) {
    return Status::Invalid("HybridBfs alpha/beta must be positive");
  }
  obs::ScopedTrace span("HybridBfs");
  EngineRun run = HybridBfsEngine(g, sources, options,
                                  ResolveNumThreads(options.num_threads));
  FlushHybridStats(run);
  return std::move(run.dist);
}

/// The plain BFS entry points: the seed queue BFS at one thread, the hybrid
/// engine's push direction (no in-edges needed) on more.
template <NeighborRangeGraph G>
std::vector<uint32_t> MultiSourceBfsImpl(const G& g,
                                         std::span<const VertexId> sources,
                                         BfsOptions options) {
  obs::ScopedTrace span("MultiSourceBfs");
  const unsigned threads = ResolveNumThreads(options.num_threads);
  std::vector<uint32_t> dist;
  if (threads <= 1) {
    dist = SerialBfs(g, sources);
  } else {
    HybridBfsOptions push;
    push.direction = TraversalDirection::kPush;
    dist = HybridBfsEngine(g, sources, push, threads).dist;
  }
  FlushBfsStats(g, dist);
  return dist;
}

}  // namespace

Result<std::vector<uint32_t>> HybridBfs(const CsrGraph& g, VertexId source,
                                        HybridBfsOptions options) {
  VertexId sources[] = {source};
  return HybridMultiSourceBfsImpl(g, sources, options);
}

Result<std::vector<uint32_t>> HybridBfs(const CompressedCsrGraph& g,
                                        VertexId source,
                                        HybridBfsOptions options) {
  VertexId sources[] = {source};
  return HybridMultiSourceBfsImpl(g, sources, options);
}

Result<std::vector<uint32_t>> HybridMultiSourceBfs(
    const CsrGraph& g, std::span<const VertexId> sources,
    HybridBfsOptions options) {
  return HybridMultiSourceBfsImpl(g, sources, options);
}

Result<std::vector<uint32_t>> HybridMultiSourceBfs(
    const CompressedCsrGraph& g, std::span<const VertexId> sources,
    HybridBfsOptions options) {
  return HybridMultiSourceBfsImpl(g, sources, options);
}

std::vector<uint32_t> BfsDistances(const CsrGraph& g, VertexId source,
                                   BfsOptions options) {
  VertexId sources[] = {source};
  return MultiSourceBfsImpl(g, sources, options);
}

std::vector<uint32_t> BfsDistances(const CompressedCsrGraph& g, VertexId source,
                                   BfsOptions options) {
  VertexId sources[] = {source};
  return MultiSourceBfsImpl(g, sources, options);
}

std::vector<uint32_t> MultiSourceBfs(const CsrGraph& g,
                                     std::span<const VertexId> sources,
                                     BfsOptions options) {
  return MultiSourceBfsImpl(g, sources, options);
}

std::vector<uint32_t> MultiSourceBfs(const CompressedCsrGraph& g,
                                     std::span<const VertexId> sources,
                                     BfsOptions options) {
  return MultiSourceBfsImpl(g, sources, options);
}

std::vector<VertexId> BfsParents(const CsrGraph& g, VertexId source) {
  std::vector<VertexId> parent(g.num_vertices(), kInvalidVertex);
  if (source >= g.num_vertices()) return parent;
  std::deque<VertexId> queue;
  parent[source] = source;
  queue.push_back(source);
  while (!queue.empty()) {
    VertexId u = queue.front();
    queue.pop_front();
    for (VertexId v : g.OutNeighbors(u)) {
      if (parent[v] == kInvalidVertex) {
        parent[v] = u;
        queue.push_back(v);
      }
    }
  }
  return parent;
}

uint64_t BfsVisit(const CsrGraph& g, VertexId source,
                  const std::function<bool(VertexId, uint32_t)>& visit) {
  if (source >= g.num_vertices()) return 0;
  std::vector<uint32_t> dist(g.num_vertices(), kUnreachable);
  std::deque<VertexId> queue;
  dist[source] = 0;
  queue.push_back(source);
  uint64_t visited = 0;
  while (!queue.empty()) {
    VertexId u = queue.front();
    queue.pop_front();
    ++visited;
    if (!visit(u, dist[u])) return visited;
    for (VertexId v : g.OutNeighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return visited;
}

std::vector<VertexId> DfsPreorder(const CsrGraph& g, VertexId source) {
  std::vector<VertexId> order;
  if (source >= g.num_vertices()) return order;
  std::vector<bool> seen(g.num_vertices(), false);
  std::vector<VertexId> stack{source};
  seen[source] = true;
  while (!stack.empty()) {
    VertexId u = stack.back();
    stack.pop_back();
    order.push_back(u);
    // Push in reverse so adjacency order is respected on pop.
    auto nbrs = g.OutNeighbors(u);
    for (auto it = nbrs.rbegin(); it != nbrs.rend(); ++it) {
      if (!seen[*it]) {
        seen[*it] = true;
        stack.push_back(*it);
      }
    }
  }
  return order;
}

std::vector<VertexId> DfsPostorder(const CsrGraph& g, VertexId source) {
  std::vector<VertexId> order;
  if (source >= g.num_vertices()) return order;
  std::vector<bool> seen(g.num_vertices(), false);
  // (vertex, next neighbor index) explicit stack.
  std::vector<std::pair<VertexId, uint64_t>> stack;
  seen[source] = true;
  stack.emplace_back(source, 0);
  while (!stack.empty()) {
    auto& [u, i] = stack.back();
    auto nbrs = g.OutNeighbors(u);
    if (i < nbrs.size()) {
      VertexId v = nbrs[i++];
      if (!seen[v]) {
        seen[v] = true;
        stack.emplace_back(v, 0);
      }
    } else {
      order.push_back(u);
      stack.pop_back();
    }
  }
  return order;
}

DfsForest DfsFull(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  DfsForest f;
  f.discover.assign(n, kUnreachable);
  f.finish.assign(n, kUnreachable);
  f.root.assign(n, kInvalidVertex);
  f.preorder.reserve(n);
  uint32_t clock = 0;
  std::vector<std::pair<VertexId, uint64_t>> stack;
  for (VertexId r = 0; r < n; ++r) {
    if (f.discover[r] != kUnreachable) continue;
    f.discover[r] = clock++;
    f.root[r] = r;
    f.preorder.push_back(r);
    stack.emplace_back(r, 0);
    while (!stack.empty()) {
      auto& [u, i] = stack.back();
      auto nbrs = g.OutNeighbors(u);
      if (i < nbrs.size()) {
        VertexId v = nbrs[i++];
        if (f.discover[v] == kUnreachable) {
          f.discover[v] = clock++;
          f.root[v] = r;
          f.preorder.push_back(v);
          stack.emplace_back(v, 0);
        }
      } else {
        f.finish[u] = clock++;
        stack.pop_back();
      }
    }
  }
  return f;
}

std::vector<VertexId> NeighborsAtHop(const CsrGraph& g, VertexId source,
                                     uint32_t hops) {
  std::vector<VertexId> out;
  std::vector<uint32_t> dist = BfsDistances(g, source);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v != source && dist[v] == hops) out.push_back(v);
  }
  return out;
}

std::vector<VertexId> NeighborsWithinHops(const CsrGraph& g, VertexId source,
                                          uint32_t hops) {
  std::vector<VertexId> out;
  std::vector<uint32_t> dist = BfsDistances(g, source);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v != source && dist[v] != kUnreachable && dist[v] <= hops) out.push_back(v);
  }
  return out;
}

std::vector<uint32_t> BfsDistancesSkippingSupernodes(const CsrGraph& g,
                                                     VertexId source,
                                                     uint64_t max_degree) {
  std::vector<uint32_t> dist(g.num_vertices(), kUnreachable);
  if (source >= g.num_vertices()) return dist;
  std::deque<VertexId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    VertexId u = queue.front();
    queue.pop_front();
    // Supernodes terminate paths: they are reachable but not expanded.
    if (u != source && g.OutDegree(u) > max_degree) continue;
    for (VertexId v : g.OutNeighbors(u)) {
      if (dist[v] == kUnreachable) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return dist;
}

Result<std::vector<VertexId>> TopologicalSort(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  std::vector<uint64_t> indegree(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.OutNeighbors(u)) ++indegree[v];
  }
  std::vector<VertexId> order;
  order.reserve(n);
  std::vector<VertexId> frontier;
  for (VertexId v = 0; v < n; ++v) {
    if (indegree[v] == 0) frontier.push_back(v);
  }
  while (!frontier.empty()) {
    VertexId u = frontier.back();
    frontier.pop_back();
    order.push_back(u);
    for (VertexId v : g.OutNeighbors(u)) {
      if (--indegree[v] == 0) frontier.push_back(v);
    }
  }
  if (order.size() != n) {
    return Status::Invalid("graph contains a cycle; topological sort impossible");
  }
  return order;
}

}  // namespace ubigraph::algo
