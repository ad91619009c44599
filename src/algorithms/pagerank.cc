#include "algorithms/pagerank.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/parallel.h"
#include "graph/compressed_csr.h"
#include "graph/graph_traits.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ubigraph::algo {

namespace {

template <NeighborRangeGraph G>
Result<PageRankResult> PageRankImpl(const G& g, PageRankOptions options) {
  const VertexId n = g.num_vertices();
  if (n == 0) return Status::Invalid("PageRank on empty graph");
  if (options.damping < 0.0 || options.damping >= 1.0) {
    return Status::Invalid("damping must be in [0, 1)");
  }
  if (!options.personalization.empty() && options.personalization.size() != n) {
    return Status::Invalid("personalization vector size mismatch");
  }
  PageRankMode mode = options.mode;
  if (mode == PageRankMode::kAuto) {
    mode = (g.directed() && !g.has_in_edges()) ? PageRankMode::kPush
                                               : PageRankMode::kPull;
  }
  if (mode == PageRankMode::kPull) {
    UG_RETURN_NOT_OK(g.RequireInEdges("PageRank (pull mode)"));
  }

  obs::ScopedTrace span("PageRank");
  Timer timer;

  const double d = options.damping;
  auto teleport = [&](VertexId v) -> double {
    return options.personalization.empty() ? 1.0 / n : options.personalization[v];
  };

  std::vector<double> rank(n);
  for (VertexId v = 0; v < n; ++v) rank[v] = teleport(v);

  std::vector<double> inv_outdeg(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    uint64_t deg = g.OutDegree(v);
    if (deg > 0) inv_outdeg[v] = 1.0 / static_cast<double>(deg);
  }

  PageRankResult result;
  result.mode = mode;
  if (mode == PageRankMode::kPull) {
    const PullSweepsResult run = PullSweeps(
        [&g](VertexId v) { return g.InNeighbors(v); }, teleport, inv_outdeg,
        g.num_edges(), d, options.tolerance, options.max_iterations,
        options.num_threads, rank);
    result.iterations = run.sweeps;
    result.final_delta = run.final_delta;
    result.converged = run.converged;
  } else {
    // Scatter rank[u]/outdeg(u) along out-edges. Serial: plain adds into
    // next[]. Parallel: each worker scatters its contiguous source range
    // into a private accumulator; accumulators merge in ascending worker
    // order, keeping scores deterministic at a fixed thread count.
    const unsigned threads = ResolveNumThreads(options.num_threads);
    const bool parallel = threads > 1;
    auto plus = [](double a, double b) { return a + b; };
    // Dangling mass (vertices with no out-edges) redistributed by the
    // teleport vector. The parallel sum is a deterministic chunked tree.
    auto dangling_mass = [&]() {
      if (!parallel) {
        double sum = 0.0;
        for (VertexId v = 0; v < n; ++v) {
          if (g.OutDegree(v) == 0) sum += rank[v];
        }
        return sum;
      }
      return ParallelReduce(
          threads, 0, n, 0.0,
          [&](uint64_t b, uint64_t e) {
            double sum = 0.0;
            for (uint64_t v = b; v < e; ++v) {
              if (g.OutDegree(static_cast<VertexId>(v)) == 0) sum += rank[v];
            }
            return sum;
          },
          plus);
    };
    std::vector<double> next(n);
    std::vector<std::vector<double>> acc;
    if (parallel) acc.assign(threads, std::vector<double>(n, 0.0));
    const uint64_t per = (static_cast<uint64_t>(n) + threads - 1) / threads;
    for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
      const double dangling = dangling_mass();
      double delta;
      if (!parallel) {
        for (VertexId v = 0; v < n; ++v) {
          next[v] = (1.0 - d) * teleport(v) + d * dangling * teleport(v);
        }
        for (VertexId u = 0; u < n; ++u) {
          if (inv_outdeg[u] == 0.0) continue;
          const double contrib = d * rank[u] * inv_outdeg[u];
          for (VertexId v : g.OutNeighbors(u)) next[v] += contrib;
        }
        delta = 0.0;
        for (VertexId v = 0; v < n; ++v) delta += std::abs(next[v] - rank[v]);
      } else {
        ForkJoin(threads, [&](unsigned w) {
          auto& a = acc[w];
          std::fill(a.begin(), a.end(), 0.0);
          const uint64_t lo = std::min<uint64_t>(w * per, n);
          const uint64_t hi = std::min<uint64_t>(lo + per, n);
          for (uint64_t u = lo; u < hi; ++u) {
            if (inv_outdeg[u] == 0.0) continue;
            const double contrib = d * rank[u] * inv_outdeg[u];
            for (VertexId v : g.OutNeighbors(static_cast<VertexId>(u))) {
              a[v] += contrib;
            }
          }
        });
        delta = ParallelReduce(
            threads, 0, n, 0.0,
            [&](uint64_t b, uint64_t e) {
              double sum = 0.0;
              for (uint64_t i = b; i < e; ++i) {
                VertexId v = static_cast<VertexId>(i);
                double nv = (1.0 - d) * teleport(v) + d * dangling * teleport(v);
                for (unsigned w = 0; w < threads; ++w) nv += acc[w][v];
                next[v] = nv;
                sum += std::abs(nv - rank[v]);
              }
              return sum;
            },
            plus);
      }
      rank.swap(next);
      result.iterations = iter + 1;
      result.final_delta = delta;
      if (delta < options.tolerance) {
        result.converged = true;
        break;
      }
    }
  }
  result.scores = std::move(rank);
  // Instrumentation flushes totals once per run (no-ops when disabled), so
  // the iteration loops above are identical to the uninstrumented kernel.
  obs::AddCounter("pagerank.runs", 1);
  obs::AddCounter(mode == PageRankMode::kPull ? "pagerank.mode.pull"
                                              : "pagerank.mode.push",
                  1);
  obs::AddCounter("pagerank.iterations", result.iterations);
  obs::AddCounter("pagerank.edges_relaxed",
                  static_cast<int64_t>(result.iterations * g.num_edges()));
  obs::RecordLatency("pagerank.latency_us",
                     static_cast<int64_t>(timer.ElapsedSeconds() * 1e6));
  return result;
}

}  // namespace

Result<PageRankResult> PageRank(const CsrGraph& g, PageRankOptions options) {
  return PageRankImpl(g, options);
}

Result<PageRankResult> PageRank(const CompressedCsrGraph& g,
                                PageRankOptions options) {
  return PageRankImpl(g, options);
}

Result<HitsResult> Hits(const CsrGraph& g, uint32_t max_iterations,
                        double tolerance) {
  const VertexId n = g.num_vertices();
  if (n == 0) return Status::Invalid("HITS on empty graph");
  if (g.directed() && !g.has_in_edges()) {
    return Status::Invalid("HITS on a directed graph requires in-edges");
  }
  HitsResult r;
  r.hub.assign(n, 1.0 / std::sqrt(static_cast<double>(n)));
  r.authority.assign(n, 1.0 / std::sqrt(static_cast<double>(n)));
  std::vector<double> next(n);

  auto normalize = [&](std::vector<double>* v) {
    double norm = 0.0;
    for (double x : *v) norm += x * x;
    norm = std::sqrt(norm);
    if (norm > 0) {
      for (double& x : *v) x /= norm;
    }
  };

  for (uint32_t iter = 0; iter < max_iterations; ++iter) {
    // authority(v) = sum of hub(u) over in-neighbors u.
    for (VertexId v = 0; v < n; ++v) {
      double sum = 0.0;
      for (VertexId u : g.InNeighbors(v)) sum += r.hub[u];
      next[v] = sum;
    }
    normalize(&next);
    double delta = 0.0;
    for (VertexId v = 0; v < n; ++v) delta += std::abs(next[v] - r.authority[v]);
    r.authority.swap(next);
    // hub(u) = sum of authority(v) over out-neighbors v.
    for (VertexId u = 0; u < n; ++u) {
      double sum = 0.0;
      for (VertexId v : g.OutNeighbors(u)) sum += r.authority[v];
      next[u] = sum;
    }
    normalize(&next);
    for (VertexId u = 0; u < n; ++u) delta += std::abs(next[u] - r.hub[u]);
    r.hub.swap(next);
    r.iterations = iter + 1;
    if (delta < tolerance) {
      r.converged = true;
      break;
    }
  }
  return r;
}

std::vector<VertexId> TopK(const std::vector<double>& scores, size_t k) {
  std::vector<VertexId> idx(scores.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = static_cast<VertexId>(i);
  k = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(k), idx.end(),
                    [&](VertexId a, VertexId b) {
                      if (scores[a] != scores[b]) return scores[a] > scores[b];
                      return a < b;
                    });
  idx.resize(k);
  return idx;
}

}  // namespace ubigraph::algo
