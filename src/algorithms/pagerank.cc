#include "algorithms/pagerank.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/parallel.h"
#include "graph/compressed_csr.h"
#include "graph/frontier.h"
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
  if (!options.warm_start.empty() && options.warm_start.size() != n) {
    return Status::Invalid("warm_start vector size mismatch");
  }
  PageRankMode mode = options.mode;
  if (mode == PageRankMode::kAuto) {
    mode = (g.directed() && !g.has_in_edges()) ? PageRankMode::kPush
                                               : PageRankMode::kPull;
  }
  if (mode == PageRankMode::kPull || mode == PageRankMode::kDelta) {
    UG_RETURN_NOT_OK(g.RequireInEdges(mode == PageRankMode::kPull
                                          ? "PageRank (pull mode)"
                                          : "PageRank (delta mode)"));
  }

  obs::ScopedTrace span("PageRank");
  Timer timer;

  const double d = options.damping;
  auto teleport = [&](VertexId v) -> double {
    return options.personalization.empty() ? 1.0 / n : options.personalization[v];
  };

  std::vector<double> rank(n), next(n);
  if (options.warm_start.empty()) {
    for (VertexId v = 0; v < n; ++v) rank[v] = teleport(v);
  } else {
    rank = options.warm_start;
  }

  std::vector<double> inv_outdeg(n, 0.0);
  for (VertexId v = 0; v < n; ++v) {
    uint64_t deg = g.OutDegree(v);
    if (deg > 0) inv_outdeg[v] = 1.0 / static_cast<double>(deg);
  }

  // Pull-based update of one vertex; writes next[v], returns the L1 change.
  // Pull-side gathers read `wrank[u] = rank[u] * inv_outdeg[u]`, rebuilt once
  // per iteration (O(n)) so the per-edge work is a single load+add. The
  // product is computed from the same operands either way, so scores are
  // bitwise-identical to the per-edge form.
  std::vector<double> wrank(n, 0.0);
  auto relax = [&](VertexId v, double dangling) {
    double in_sum = 0.0;
    for (VertexId u : g.InNeighbors(v)) in_sum += wrank[u];
    double nv = (1.0 - d) * teleport(v) + d * (in_sum + dangling * teleport(v));
    next[v] = nv;
    return std::abs(nv - rank[v]);
  };

  PageRankResult result;
  result.mode = mode;
  const unsigned threads = ResolveNumThreads(options.num_threads);
  const bool parallel = threads > 1;
  auto plus = [](double a, double b) { return a + b; };

  // Dangling mass (vertices with no out-edges) redistributed by the teleport
  // vector; shared by every mode. The parallel sum is a deterministic
  // chunked tree.
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
  auto build_wrank = [&]() {
    ParallelFor(threads, 0, n,
                [&](uint64_t v) { wrank[v] = rank[v] * inv_outdeg[v]; });
  };
  auto finish_iteration = [&](uint32_t iter, double delta) {
    rank.swap(next);
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (delta < options.tolerance) result.converged = true;
    return result.converged;
  };

  uint64_t edges_relaxed = 0;
  if (mode == PageRankMode::kPull) {
    for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
      const double dangling = dangling_mass();
      build_wrank();
      double delta;
      if (!parallel) {
        delta = 0.0;
        for (VertexId v = 0; v < n; ++v) delta += relax(v, dangling);
      } else {
        delta = ParallelReduce(
            threads, 0, n, 0.0,
            [&](uint64_t b, uint64_t e) {
              double sum = 0.0;
              for (uint64_t v = b; v < e; ++v) {
                sum += relax(static_cast<VertexId>(v), dangling);
              }
              return sum;
            },
            plus);
      }
      edges_relaxed += g.num_edges();
      if (finish_iteration(iter, delta)) break;
    }
  } else if (mode == PageRankMode::kPush) {
    // Scatter rank[u]/outdeg(u) along out-edges. Serial: plain adds into
    // next[]. Parallel: each worker scatters its contiguous source range
    // into a private accumulator; accumulators merge in ascending worker
    // order, keeping scores deterministic at a fixed thread count.
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
      edges_relaxed += g.num_edges();
      if (finish_iteration(iter, delta)) break;
    }
  } else {  // kDelta
    // Frontier-based pull: only vertices whose in-neighborhood is still
    // moving get re-gathered; everyone else keeps their score modulo the
    // global dangling-mass drift. A vertex whose score moved more than
    // tolerance/n re-activates its out-neighbors for the next sweep. If the
    // frontier drains before the L1 delta certifies convergence, one full
    // sweep re-seeds it, so the mode terminates at the same fixpoint as
    // kPull (within tolerance).
    Frontier active(n), changed(n), next_active(n);
    active.SetAll();
    // Skip threshold. tolerance/n is conservative — a sum of n sub-threshold
    // changes stays under tolerance — so regions go quiescent only once they
    // are individually done. Looser thresholds (e.g. tolerance/sqrt(n)) stay
    // sound thanks to the certification sweep below but measured worse: they
    // freeze vertices early, accumulate drift error, and the certification
    // sweeps then force many extra rounds.
    const double thr =
        options.tolerance > 0 ? options.tolerance / static_cast<double>(n) : 0.0;
    double prev_dangling = 0.0;
    obs::LatencyHistogram* active_hist =
        obs::Enabled()
            ? obs::MetricsRegistry::Global().GetHistogram("pagerank.delta.active")
            : nullptr;
    for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
      const double dangling = dangling_mass();
      build_wrank();
      if (active_hist != nullptr) {
        active_hist->Record(static_cast<int64_t>(active.size()));
      }
      changed.ClearDense();
      // Returns (L1 delta, in-edges gathered) for one chunk. The sweep only
      // flags changed vertices (O(1) per vertex); activation of their
      // out-neighbors happens after the round so the flag pass costs no edge
      // work while most of the graph is still moving.
      using Partial = std::pair<double, uint64_t>;
      auto sweep = [&](uint64_t b, uint64_t e) {
        Partial p{0.0, 0};
        for (uint64_t i = b; i < e; ++i) {
          VertexId v = static_cast<VertexId>(i);
          double nv;
          if (active.Test(v)) {
            const auto in = g.InNeighbors(v);
            double in_sum = 0.0;
            for (VertexId u : in) in_sum += wrank[u];
            p.second += in.size();
            nv = (1.0 - d) * teleport(v) + d * (in_sum + dangling * teleport(v));
            // Only an exactly re-gathered vertex can flag itself as still
            // moving; the uniform dangling drift applied to skipped vertices
            // must not re-activate the whole graph every round. Any error
            // this hides is caught by the full certification sweep below.
            if (std::abs(nv - rank[v]) > thr) {
              if (parallel) {
                changed.AtomicTestAndSet(v);
              } else {
                changed.Set(v);
              }
            }
          } else {
            nv = rank[v] + d * teleport(v) * (dangling - prev_dangling);
          }
          next[v] = nv;
          p.first += std::abs(nv - rank[v]);
        }
        return p;
      };
      Partial total;
      if (!parallel) {
        total = sweep(0, n);
      } else {
        total = ParallelReduce(
            threads, 0, n, Partial{0.0, 0},
            sweep,
            [](Partial a, Partial b) {
              return Partial{a.first + b.first, a.second + b.second};
            });
      }
      edges_relaxed += total.second;
      prev_dangling = dangling;
      const bool was_full = active.size() == n;
      rank.swap(next);
      result.iterations = iter + 1;
      result.final_delta = total.first;
      if (total.first < options.tolerance) {
        if (was_full) {
          // Convergence is only certified on a round where every vertex was
          // re-gathered exactly — a partial sweep's L1 includes approximated
          // (drift-only) updates and could under-report the true residual.
          result.converged = true;
          break;
        }
        active.SetAll();
        continue;
      }
      changed.RecountDense();
      if (changed.size() > n / 8 || changed.empty()) {
        // Most of the graph still moved (or the frontier drained while the
        // residual is above tolerance): everyone stays active; skipping the
        // per-edge activation scatter keeps early rounds at pull-mode cost.
        active.SetAll();
      } else {
        changed.ToSparse();
        next_active.ClearDense();
        uint64_t marked = 0;
        for (VertexId v : changed.Vertices()) {
          for (VertexId w : g.OutNeighbors(v)) {
            marked += next_active.AtomicTestAndSet(w) ? 1 : 0;
          }
        }
        next_active.SetCount(marked);
        std::swap(active, next_active);
      }
    }
  }
  result.scores = std::move(rank);
  // Instrumentation flushes totals once per run (no-ops when disabled), so
  // the iteration loops above are identical to the uninstrumented kernel.
  obs::AddCounter("pagerank.runs", 1);
  obs::AddCounter(mode == PageRankMode::kPull   ? "pagerank.mode.pull"
                  : mode == PageRankMode::kPush ? "pagerank.mode.push"
                                                : "pagerank.mode.delta",
                  1);
  obs::AddCounter("pagerank.iterations", result.iterations);
  obs::AddCounter("pagerank.edges_relaxed", static_cast<int64_t>(edges_relaxed));
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
