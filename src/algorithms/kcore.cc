#include "algorithms/kcore.h"

#include <algorithm>
#include <span>

#include "common/timer.h"
#include "graph/compressed_csr.h"
#include "graph/graph_traits.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ubigraph::algo {

namespace {

template <NeighborRangeGraph G>
std::vector<std::vector<VertexId>> SimpleUndirected(const G& g) {
  std::vector<std::vector<VertexId>> adj(g.num_vertices());
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.OutNeighbors(u)) {
      if (u == v) continue;
      adj[u].push_back(v);
      adj[v].push_back(u);
    }
  }
  for (auto& a : adj) {
    std::sort(a.begin(), a.end());
    a.erase(std::unique(a.begin(), a.end()), a.end());
  }
  return adj;
}

}  // namespace

std::vector<uint32_t> PeelCoreNumbers(
    std::span<const std::vector<VertexId>> adj) {
  const VertexId n = static_cast<VertexId>(adj.size());
  std::vector<uint32_t> degree(n);
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<uint32_t>(adj[v].size());
    max_degree = std::max(max_degree, degree[v]);
  }

  // Bucket-based peeling (Batagelj-Zaversnik): O(V + E).
  std::vector<uint32_t> bucket_start(max_degree + 2, 0);
  for (VertexId v = 0; v < n; ++v) ++bucket_start[degree[v] + 1];
  for (uint32_t d = 1; d <= max_degree + 1; ++d) bucket_start[d] += bucket_start[d - 1];
  std::vector<VertexId> sorted(n);
  std::vector<uint32_t> position(n);
  {
    std::vector<uint32_t> cursor(bucket_start.begin(), bucket_start.end() - 1);
    for (VertexId v = 0; v < n; ++v) {
      position[v] = cursor[degree[v]];
      sorted[position[v]] = v;
      ++cursor[degree[v]];
    }
  }

  std::vector<uint32_t> core = degree;
  for (uint32_t i = 0; i < n; ++i) {
    VertexId v = sorted[i];
    for (VertexId u : adj[v]) {
      if (core[u] > core[v]) {
        // Move u one bucket down: swap it with the first vertex of its bucket.
        uint32_t du = core[u];
        uint32_t pu = position[u];
        uint32_t pw = bucket_start[du];
        VertexId w = sorted[pw];
        if (u != w) {
          std::swap(sorted[pu], sorted[pw]);
          position[u] = pw;
          position[w] = pu;
        }
        ++bucket_start[du];
        --core[u];
      }
    }
  }
  return core;
}

namespace {

template <NeighborRangeGraph G>
std::vector<uint32_t> CoreDecompositionImpl(const G& g) {
  obs::ScopedTrace span("CoreDecomposition");
  Timer timer;
  auto adj = SimpleUndirected(g);
  std::vector<uint32_t> core = PeelCoreNumbers(adj);
  if (obs::Enabled()) {
    obs::AddCounter("kcore.runs", 1);
    obs::AddCounter("kcore.vertices", static_cast<int64_t>(adj.size()));
    obs::RecordLatency("kcore.latency_us",
                       static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  }
  return core;
}

}  // namespace

std::vector<uint32_t> CoreDecomposition(const CsrGraph& g,
                                        const CoreOptions&) {
  return CoreDecompositionImpl(g);
}

std::vector<uint32_t> CoreDecomposition(const CompressedCsrGraph& g,
                                        const CoreOptions&) {
  return CoreDecompositionImpl(g);
}

std::vector<VertexId> KCore(const CsrGraph& g, uint32_t k,
                            const CoreOptions& options) {
  std::vector<uint32_t> core = CoreDecomposition(g, options);
  std::vector<VertexId> out;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (core[v] >= k) out.push_back(v);
  }
  return out;
}

uint32_t Degeneracy(const CsrGraph& g, const CoreOptions& options) {
  std::vector<uint32_t> core = CoreDecomposition(g, options);
  uint32_t best = 0;
  for (uint32_t c : core) best = std::max(best, c);
  return best;
}

DensestSubgraphResult DensestSubgraphApprox(const CsrGraph& g) {
  auto adj = SimpleUndirected(g);
  const VertexId n = g.num_vertices();
  DensestSubgraphResult result;
  if (n == 0) return result;

  uint64_t edges = 0;
  std::vector<uint32_t> degree(n);
  uint32_t max_degree = 0;
  for (VertexId v = 0; v < n; ++v) {
    degree[v] = static_cast<uint32_t>(adj[v].size());
    edges += degree[v];
    max_degree = std::max(max_degree, degree[v]);
  }
  edges /= 2;

  // Greedy peel of minimum-degree vertices, tracking best density prefix.
  std::vector<bool> removed(n, false);
  std::vector<std::vector<VertexId>> buckets(max_degree + 1);
  for (VertexId v = 0; v < n; ++v) buckets[degree[v]].push_back(v);
  std::vector<VertexId> removal_order;
  removal_order.reserve(n);

  uint64_t cur_edges = edges;
  uint64_t cur_vertices = n;
  double best_density =
      cur_vertices ? static_cast<double>(cur_edges) / cur_vertices : 0.0;
  size_t best_removed = 0;  // best prefix of removal_order removed

  uint32_t d = 0;
  while (cur_vertices > 0) {
    while (d <= max_degree && buckets[d].empty()) ++d;
    if (d > max_degree) break;
    VertexId v = buckets[d].back();
    buckets[d].pop_back();
    if (removed[v] || degree[v] != d) continue;  // stale bucket entry
    removed[v] = true;
    removal_order.push_back(v);
    cur_edges -= degree[v];
    --cur_vertices;
    for (VertexId u : adj[v]) {
      if (!removed[u]) {
        --degree[u];
        buckets[degree[u]].push_back(u);
        if (degree[u] < d) d = degree[u];
      }
    }
    if (cur_vertices > 0) {
      double density = static_cast<double>(cur_edges) / cur_vertices;
      if (density > best_density) {
        best_density = density;
        best_removed = removal_order.size();
      }
    }
  }

  std::vector<bool> in_best(n, true);
  for (size_t i = 0; i < best_removed; ++i) in_best[removal_order[i]] = false;
  for (VertexId v = 0; v < n; ++v) {
    if (in_best[v]) result.vertices.push_back(v);
  }
  result.density = best_density;
  return result;
}

}  // namespace ubigraph::algo
