#include "algorithms/triangle.h"

#include <algorithm>
#include <cassert>

#include "common/parallel.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ubigraph::algo {

namespace {

/// Deduplicated, sorted, loop-free undirected adjacency (u's neighbors).
std::vector<std::vector<VertexId>> SimpleUndirectedAdjacency(const CsrGraph& g) {
  const VertexId n = g.num_vertices();
  std::vector<std::vector<VertexId>> adj(n);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      if (u == v) continue;
      adj[u].push_back(v);
      if (g.directed()) adj[v].push_back(u);
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  return adj;
}

uint64_t SortedIntersectionSize(const std::vector<VertexId>& a,
                                const std::vector<VertexId>& b) {
  uint64_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) ++i;
    else if (a[i] > b[j]) ++j;
    else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

}  // namespace

uint64_t CountTriangles(const CsrGraph& g, TriangleCountOptions options) {
  obs::ScopedTrace span("CountTriangles");
  Timer timer;
  auto adj = SimpleUndirectedAdjacency(g);
  const VertexId n = g.num_vertices();
  // Forward algorithm: orient each edge from lower-(degree, id) to higher and
  // intersect forward-neighbor lists.
  auto rank_less = [&](VertexId a, VertexId b) {
    if (adj[a].size() != adj[b].size()) return adj[a].size() < adj[b].size();
    return a < b;
  };
  std::vector<std::vector<VertexId>> fwd(n);
  auto build_fwd = [&](uint64_t b, uint64_t e) {
    for (uint64_t i = b; i < e; ++i) {
      VertexId u = static_cast<VertexId>(i);
      for (VertexId v : adj[u]) {
        if (rank_less(u, v)) fwd[u].push_back(v);
      }
      std::sort(fwd[u].begin(), fwd[u].end());
    }
  };
  // Per-vertex intersection counts over [b, e); reads fwd only.
  auto count_range = [&](uint64_t b, uint64_t e) {
    uint64_t triangles = 0;
    for (uint64_t i = b; i < e; ++i) {
      VertexId u = static_cast<VertexId>(i);
      for (VertexId v : fwd[u]) {
        triangles += SortedIntersectionSize(fwd[u], fwd[v]);
      }
    }
    return triangles;
  };

  const unsigned threads = ResolveNumThreads(options.num_threads);
  uint64_t triangles;
  if (threads <= 1) {
    build_fwd(0, n);
    triangles = count_range(0, n);
  } else {
    // Dynamic scheduling: power-law degree skew makes static blocks lopsided.
    ParallelForChunks(threads, 0, n, build_fwd, Schedule::kDynamic, /*grain=*/512);
    triangles = ParallelReduce(threads, 0, n, uint64_t{0}, count_range,
                               [](uint64_t a, uint64_t b) { return a + b; },
                               /*grain=*/512);
  }
  obs::AddCounter("triangle.runs", 1);
  obs::AddCounter("triangle.triangles_found", static_cast<int64_t>(triangles));
  obs::RecordLatency("triangle.latency_us",
                     static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return triangles;
}

std::vector<uint64_t> TrianglesPerVertex(const CsrGraph& g) {
  auto adj = SimpleUndirectedAdjacency(g);
  const VertexId n = g.num_vertices();
  std::vector<uint64_t> tri(n, 0);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v : adj[u]) {
      if (v <= u) continue;  // each undirected edge once
      // Common neighbors w of (u, v) with w > v close a triangle counted once;
      // but for per-vertex counts we need every triangle at every corner, so
      // count all common neighbors and credit u, v, w for w > v only.
      size_t i = 0, j = 0;
      const auto& au = adj[u];
      const auto& av = adj[v];
      while (i < au.size() && j < av.size()) {
        if (au[i] < av[j]) ++i;
        else if (au[i] > av[j]) ++j;
        else {
          VertexId w = au[i];
          if (w > v) {
            ++tri[u];
            ++tri[v];
            ++tri[w];
          }
          ++i;
          ++j;
        }
      }
    }
  }
  return tri;
}

std::vector<double> LocalClusteringCoefficients(const CsrGraph& g) {
  auto adj = SimpleUndirectedAdjacency(g);
  std::vector<uint64_t> tri = TrianglesPerVertex(g);
  std::vector<double> out(g.num_vertices(), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    uint64_t d = adj[v].size();
    if (d >= 2) {
      out[v] = 2.0 * static_cast<double>(tri[v]) /
               (static_cast<double>(d) * static_cast<double>(d - 1));
    }
  }
  return out;
}

double AverageClusteringCoefficient(const CsrGraph& g) {
  auto adj = SimpleUndirectedAdjacency(g);
  std::vector<double> local = LocalClusteringCoefficients(g);
  double sum = 0.0;
  uint64_t count = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (adj[v].size() >= 2) {
      sum += local[v];
      ++count;
    }
  }
  return count > 0 ? sum / static_cast<double>(count) : 0.0;
}

double GlobalClusteringCoefficient(const CsrGraph& g) {
  auto adj = SimpleUndirectedAdjacency(g);
  uint64_t wedges = 0;
  for (const auto& a : adj) {
    uint64_t d = a.size();
    wedges += d * (d - 1) / 2;
  }
  if (wedges == 0) return 0.0;
  return 3.0 * static_cast<double>(CountTriangles(g)) / static_cast<double>(wedges);
}

std::vector<uint64_t> DegreeHistogram(const CsrGraph& g) {
  std::vector<uint64_t> counts;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    uint64_t d = g.OutDegree(v);
    if (d >= counts.size()) counts.resize(d + 1, 0);
    ++counts[d];
  }
  return counts;
}

DegreeStats ComputeDegreeStats(const CsrGraph& g) {
  DegreeStats s;
  const VertexId n = g.num_vertices();
  if (n == 0) return s;
  s.min = UINT64_MAX;
  uint64_t total = 0;
  for (VertexId v = 0; v < n; ++v) {
    uint64_t d = g.OutDegree(v);
    s.min = std::min(s.min, d);
    s.max = std::max(s.max, d);
    total += d;
  }
  s.mean = static_cast<double>(total) / n;
  return s;
}

}  // namespace ubigraph::algo
