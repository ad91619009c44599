#include "algorithms/centrality.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "algorithms/traversal.h"
#include "common/parallel.h"
#include "common/timer.h"
#include "graph/compressed_csr.h"
#include "graph/frontier.h"
#include "graph/graph_traits.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ubigraph::algo {

namespace {

/// Chunk-count cap for the source-batched reductions: the grain is derived
/// from the source count so the chunk map — and with it the combine tree —
/// is a pure function of the input, never of the worker count. It also
/// bounds transient memory at ~kSourceChunks partial score arrays.
constexpr uint64_t kSourceChunks = 32;

inline uint64_t SourceGrain(uint64_t count) {
  return std::max<uint64_t>(1, (count + kSourceChunks - 1) / kSourceChunks);
}

/// Reusable per-chunk workspace: one allocation set per chunk instead of one
/// per source (the old code rebuilt a vector-of-pred-lists every source).
struct BrandesScratch {
  std::vector<uint32_t> dist;
  std::vector<double> sigma;
  std::vector<double> delta;
  Frontier cur, next;
  std::vector<VertexId> order;        // concatenated per-level frontiers
  std::vector<size_t> level_start;    // offsets into `order`, plus sentinel
};

/// One Brandes accumulation from `source` into `acc`. The forward pass is a
/// level-synchronous BFS over the shared Frontier representation (the same
/// frontiers HybridBfs builds); the backward pass walks the recorded levels
/// deepest-first and reads successors directly from the adjacency instead of
/// materializing predecessor lists — dist[v] == dist[u] + 1 identifies a DAG
/// edge just as cheaply.
template <NeighborRangeGraph G>
void BrandesFromSource(const G& g, VertexId source, BrandesScratch* s,
                       std::vector<double>* acc, uint64_t* edges_scanned) {
  const VertexId n = g.num_vertices();
  s->dist.assign(n, kUnreachable);
  s->sigma.assign(n, 0.0);
  s->delta.assign(n, 0.0);
  s->order.clear();
  s->level_start.clear();
  s->cur.Reset(n);
  s->next.Reset(n);

  s->dist[source] = 0;
  s->sigma[source] = 1.0;
  s->cur.Push(source);
  while (!s->cur.empty()) {
    s->level_start.push_back(s->order.size());
    for (VertexId u : s->cur.Vertices()) s->order.push_back(u);
    for (VertexId u : s->cur.Vertices()) {
      const uint32_t dv = s->dist[u] + 1;
      for (VertexId v : g.OutNeighbors(u)) {
        if (s->dist[v] == kUnreachable) {
          s->dist[v] = dv;
          s->next.Push(v);
        }
        if (s->dist[v] == dv) s->sigma[v] += s->sigma[u];
      }
      *edges_scanned += g.OutDegree(u);
    }
    std::swap(s->cur, s->next);
    s->next.Clear();
  }
  s->level_start.push_back(s->order.size());

  for (size_t level = s->level_start.size() - 1; level-- > 0;) {
    for (size_t i = s->level_start[level]; i < s->level_start[level + 1]; ++i) {
      const VertexId u = s->order[i];
      const uint32_t dv = s->dist[u] + 1;
      double d = 0.0;
      for (VertexId v : g.OutNeighbors(u)) {
        if (s->dist[v] == dv) d += s->sigma[u] / s->sigma[v] * (1.0 + s->delta[v]);
      }
      s->delta[u] += d;
      if (u != source) (*acc)[u] += s->delta[u];
    }
  }
}

struct BrandesPartial {
  std::vector<double> acc;
  uint64_t edges_scanned = 0;
};

/// Accumulates Brandes contributions from `sources`, batched over threads.
/// Chunking and the combine tree depend only on the source count, so the
/// result is bitwise-identical at every thread count.
template <NeighborRangeGraph G>
std::vector<double> AccumulateBrandes(const G& g,
                                      std::span<const VertexId> sources,
                                      unsigned threads,
                                      uint64_t* edges_scanned) {
  const VertexId n = g.num_vertices();
  if (sources.empty()) return std::vector<double>(n, 0.0);
  auto map = [&g, sources, n](uint64_t b, uint64_t e) {
    BrandesPartial p;
    p.acc.assign(n, 0.0);
    BrandesScratch scratch;
    for (uint64_t i = b; i < e; ++i) {
      BrandesFromSource(g, sources[i], &scratch, &p.acc, &p.edges_scanned);
    }
    return p;
  };
  auto combine = [n](BrandesPartial a, BrandesPartial b) {
    for (VertexId v = 0; v < n; ++v) a.acc[v] += b.acc[v];
    a.edges_scanned += b.edges_scanned;
    return a;
  };
  BrandesPartial total =
      ParallelReduce(threads, 0, sources.size(), BrandesPartial{}, map, combine,
                     SourceGrain(sources.size()));
  *edges_scanned += total.edges_scanned;
  return std::move(total.acc);
}

void FlushBetweennessObs(uint64_t sources, uint64_t edges, const Timer& timer) {
  if (!obs::Enabled()) return;
  obs::AddCounter("centrality.brandes.runs", 1);
  obs::AddCounter("centrality.brandes.sources", static_cast<int64_t>(sources));
  obs::AddCounter("centrality.brandes.edges_scanned",
                  static_cast<int64_t>(edges));
  obs::RecordLatency("centrality.brandes.latency_us",
                     static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
}

template <NeighborRangeGraph G>
std::vector<double> BetweennessImpl(const G& g,
                                    const CentralityOptions& options) {
  obs::ScopedTrace span("BetweennessCentrality");
  Timer timer;
  std::vector<VertexId> sources(g.num_vertices());
  std::iota(sources.begin(), sources.end(), VertexId{0});
  uint64_t edges = 0;
  std::vector<double> centrality = AccumulateBrandes(
      g, sources, ResolveNumThreads(options.num_threads), &edges);
  if (!g.directed()) {
    for (double& c : centrality) c /= 2.0;
  }
  FlushBetweennessObs(sources.size(), edges, timer);
  return centrality;
}

template <NeighborRangeGraph G>
std::vector<double> ApproxBetweennessImpl(const G& g, uint32_t num_samples,
                                          Rng* rng,
                                          const CentralityOptions& options) {
  obs::ScopedTrace span("ApproxBetweennessCentrality");
  Timer timer;
  const VertexId n = g.num_vertices();
  if (n == 0 || num_samples == 0) return std::vector<double>(n, 0.0);
  num_samples = std::min<uint32_t>(num_samples, n);
  // Pivots are drawn serially up front: the sample — and through the fixed
  // reduction tree the scores — depend only on the seed, not the schedule.
  std::vector<VertexId> pivots(num_samples);
  for (VertexId& p : pivots) p = static_cast<VertexId>(rng->NextBounded(n));
  uint64_t edges = 0;
  std::vector<double> centrality = AccumulateBrandes(
      g, pivots, ResolveNumThreads(options.num_threads), &edges);
  const double scale = static_cast<double>(n) / num_samples;
  for (double& c : centrality) c *= scale;
  if (!g.directed()) {
    for (double& c : centrality) c /= 2.0;
  }
  FlushBetweennessObs(num_samples, edges, timer);
  return centrality;
}

/// Plain BFS into reusable chunk-local scratch (`queue` doubles as the list
/// of reached vertices).
struct BfsScratch {
  std::vector<uint32_t> dist;
  std::vector<VertexId> queue;
};

template <NeighborRangeGraph G>
void ScratchBfs(const G& g, VertexId source, BfsScratch* s) {
  s->dist.assign(g.num_vertices(), kUnreachable);
  s->queue.clear();
  s->dist[source] = 0;
  s->queue.push_back(source);
  for (size_t head = 0; head < s->queue.size(); ++head) {
    const VertexId u = s->queue[head];
    const uint32_t dv = s->dist[u] + 1;
    for (VertexId v : g.OutNeighbors(u)) {
      if (s->dist[v] == kUnreachable) {
        s->dist[v] = dv;
        s->queue.push_back(v);
      }
    }
  }
}

/// Both closeness variants: one BFS per vertex, vertices batched over
/// threads. Each score is produced by an entirely per-vertex computation (the
/// ascending-id reduction over distances matches the serial original), so
/// parallel results are bitwise-equal to serial trivially.
template <NeighborRangeGraph G, typename ScoreFn>
std::vector<double> PerVertexBfsScores(const G& g, unsigned threads,
                                       const char* trace_name,
                                       ScoreFn score) {
  obs::ScopedTrace span(trace_name);
  Timer timer;
  const VertexId n = g.num_vertices();
  std::vector<double> out(n, 0.0);
  auto run_range = [&](uint64_t b, uint64_t e) {
    BfsScratch scratch;
    for (uint64_t v = b; v < e; ++v) {
      ScratchBfs(g, static_cast<VertexId>(v), &scratch);
      out[v] = score(static_cast<VertexId>(v), scratch.dist);
    }
  };
  // Dynamic chunks: BFS cost varies wildly with the component size.
  ParallelForChunks(threads, 0, n, run_range, Schedule::kDynamic, 64);
  if (obs::Enabled()) {
    obs::AddCounter("centrality.closeness.runs", 1);
    obs::AddCounter("centrality.closeness.sources", static_cast<int64_t>(n));
    obs::RecordLatency("centrality.closeness.latency_us",
                       static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  }
  return out;
}

template <NeighborRangeGraph G>
std::vector<double> HarmonicImpl(const G& g, const CentralityOptions& options) {
  const VertexId n = g.num_vertices();
  return PerVertexBfsScores(
      g, ResolveNumThreads(options.num_threads), "HarmonicCloseness",
      [n](VertexId v, const std::vector<uint32_t>& dist) {
        double sum = 0.0;
        for (VertexId u = 0; u < n; ++u) {
          if (u != v && dist[u] != kUnreachable) sum += 1.0 / dist[u];
        }
        return sum;
      });
}

template <NeighborRangeGraph G>
std::vector<double> ClosenessImpl(const G& g, const CentralityOptions& options) {
  const VertexId n = g.num_vertices();
  if (n <= 1) return std::vector<double>(n, 0.0);
  return PerVertexBfsScores(
      g, ResolveNumThreads(options.num_threads), "ClosenessCentrality",
      [n](VertexId v, const std::vector<uint32_t>& dist) {
        uint64_t reachable = 0;
        double total = 0.0;
        for (VertexId u = 0; u < n; ++u) {
          if (u != v && dist[u] != kUnreachable) {
            ++reachable;
            total += dist[u];
          }
        }
        if (reachable == 0 || total == 0) return 0.0;
        double frac = static_cast<double>(reachable) / (n - 1);
        return frac * static_cast<double>(reachable) / total;
      });
}

}  // namespace

std::vector<double> BetweennessCentrality(const CsrGraph& g,
                                          const CentralityOptions& options) {
  return BetweennessImpl(g, options);
}

std::vector<double> BetweennessCentrality(const CompressedCsrGraph& g,
                                          const CentralityOptions& options) {
  return BetweennessImpl(g, options);
}

std::vector<double> ApproxBetweennessCentrality(const CsrGraph& g,
                                                uint32_t num_samples, Rng* rng,
                                                const CentralityOptions& options) {
  return ApproxBetweennessImpl(g, num_samples, rng, options);
}

std::vector<double> ApproxBetweennessCentrality(const CompressedCsrGraph& g,
                                                uint32_t num_samples, Rng* rng,
                                                const CentralityOptions& options) {
  return ApproxBetweennessImpl(g, num_samples, rng, options);
}

std::vector<double> HarmonicCloseness(const CsrGraph& g,
                                      const CentralityOptions& options) {
  return HarmonicImpl(g, options);
}

std::vector<double> HarmonicCloseness(const CompressedCsrGraph& g,
                                      const CentralityOptions& options) {
  return HarmonicImpl(g, options);
}

std::vector<double> ClosenessCentrality(const CsrGraph& g,
                                        const CentralityOptions& options) {
  return ClosenessImpl(g, options);
}

std::vector<double> ClosenessCentrality(const CompressedCsrGraph& g,
                                        const CentralityOptions& options) {
  return ClosenessImpl(g, options);
}

std::vector<double> DegreeCentrality(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  std::vector<double> out(n, 0.0);
  if (n <= 1) return out;
  for (VertexId v = 0; v < n; ++v) {
    out[v] = static_cast<double>(g.OutDegree(v)) / (n - 1);
  }
  return out;
}

}  // namespace ubigraph::algo
