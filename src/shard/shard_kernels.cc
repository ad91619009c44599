#include "shard/shard_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>

#include "algorithms/traversal.h"
#include "common/parallel.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace ubigraph::shard {
namespace {

/// Contiguous ascending destination ownership: worker w owns shards
/// [w*per, (w+1)*per) and every per-vertex accumulator in their vertex range.
/// Each worker scans all segments in ascending order, so every destination is
/// folded by one worker in one global ascending source sweep — the serial
/// push association.
struct ShardPlan {
  uint32_t num_shards;
  unsigned workers;
  uint32_t per;

  ShardPlan(uint32_t s, unsigned w)
      : num_shards(s), workers(w), per((s + w - 1) / w) {}
  uint32_t lo(unsigned w) const {
    return std::min<uint32_t>(w * per, num_shards);
  }
  uint32_t hi(unsigned w) const {
    return std::min<uint32_t>(lo(w) + per, num_shards);
  }
};

/// Runs fn(w) for every worker, on the pool when present. Workers record
/// failures into their own slot of `status`; the first non-OK (lowest w)
/// wins, deterministically.
template <typename Fn>
Status RunWorkers(ThreadPool* pool, unsigned workers, Fn&& fn) {
  std::vector<Status> status(workers);
  if (pool == nullptr) {
    status[0] = fn(0u);
  } else {
    for (unsigned w = 0; w < workers; ++w) {
      pool->Submit([&status, &fn, w] { status[w] = fn(w); });
    }
    pool->Wait();
  }
  for (unsigned w = 0; w < workers; ++w) {
    UG_RETURN_NOT_OK(status[w]);
  }
  return Status::OK();
}

}  // namespace

Result<ShardedPageRankResult> ShardedPageRank(
    const ShardedCsr& g, const ShardedPageRankOptions& options) {
  const VertexId n = g.num_vertices();
  if (options.damping < 0.0 || options.damping >= 1.0) {
    return Status::Invalid("damping must be in [0, 1)");
  }
  const uint32_t S = g.num_shards();
  const unsigned threads = ResolveNumThreads(options.num_threads);
  std::optional<ThreadPool> pool_storage;
  if (threads > 1) pool_storage.emplace(threads);
  ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;
  const unsigned W = pool == nullptr ? 1 : pool->size();
  const ShardPlan plan(S, W);

  const double d = options.damping;
  const double tp = 1.0 / n;
  const std::span<const uint32_t> degrees = g.degrees();
  // Same operands as the in-RAM kernel's inv_outdeg (1.0 / double(degree)),
  // so every contribution is the identical double. Cached on the graph —
  // repeated kernel calls no longer rebuild it.
  const std::span<const double> inv_outdeg = g.InvOutDegrees(pool);

  std::vector<double> rank(n, tp), next(n);
  // Arcs each worker decoded. Every worker that owns destinations scans every
  // segment, so with W such workers an iteration streams W x E arcs.
  std::vector<uint64_t> worker_scanned(W, 0);

  ShardedPageRankResult result;

  for (uint32_t iter = 0; iter < options.max_iterations; ++iter) {
    // Straight serial loops for the two global reductions: their float
    // association must match the serial in-RAM kernel regardless of W.
    double dangling = 0.0;
    for (VertexId v = 0; v < n; ++v) {
      if (degrees[v] == 0) dangling += rank[v];
    }
    const double base = (1.0 - d) * tp + d * dangling * tp;

    // Destination-owned fused scatter/apply: worker w owns next[] over its
    // shard block, seeds it with base, and folds contributions for its own
    // destinations while scanning ALL segments in ascending order — each
    // next[v] is built by one worker in globally ascending source order,
    // i.e. the serial push association, with zero message buffering.
    UG_RETURN_NOT_OK(RunWorkers(pool, W, [&](unsigned w) -> Status {
      const VertexId db = g.shard_begin(plan.lo(w));
      const VertexId de = g.shard_begin(plan.hi(w));
      if (db == de) return Status::OK();
      for (VertexId v = db; v < de; ++v) next[v] = base;
      const bool owns_all = db == 0 && de == n;
      for (uint32_t s = 0; s < S; ++s) {
        UG_ASSIGN_OR_RETURN(SegmentCache::Pin pin, g.AcquireShard(s));
        const SegmentView& view = pin.view();
        worker_scanned[w] += view.num_edges;
        if (owns_all) {
          view.ScanRows(view.begin, view.end, [&](VertexId u, auto&& nbrs) {
            if (inv_outdeg[u] == 0.0) return;
            const double contrib = d * rank[u] * inv_outdeg[u];
            for (VertexId v : nbrs) next[v] += contrib;
          });
        } else {
          view.ScanRows(view.begin, view.end, [&](VertexId u, auto&& nbrs) {
            if (inv_outdeg[u] == 0.0) return;
            const double contrib = d * rank[u] * inv_outdeg[u];
            for (VertexId v : nbrs) {
              if (v >= db && v < de) next[v] += contrib;
            }
          });
        }
      }
      return Status::OK();
    }));

    double delta = 0.0;
    for (VertexId v = 0; v < n; ++v) delta += std::abs(next[v] - rank[v]);
    rank.swap(next);
    result.iterations = iter + 1;
    result.final_delta = delta;
    if (delta < options.tolerance) {
      result.converged = true;
      break;
    }
  }

  const std::span<const VertexId> n2o = g.new_to_old();
  result.scores.resize(n);
  for (VertexId v = 0; v < n; ++v) result.scores[n2o[v]] = rank[v];
  obs::AddCounter("shard.pagerank.edges_streamed",
                  std::accumulate(worker_scanned.begin(), worker_scanned.end(),
                                  int64_t{0}));
  return result;
}

Result<std::vector<uint32_t>> ShardedBfs(
    const ShardedCsr& g, VertexId source,
    const ShardedTraversalOptions& options) {
  const VertexId n = g.num_vertices();
  if (source >= n) {
    return Status::OutOfRange("ShardedBfs: source " + std::to_string(source) +
                              " out of range for " + std::to_string(n) +
                              " vertices");
  }
  const uint32_t S = g.num_shards();
  const unsigned threads = ResolveNumThreads(options.num_threads);
  std::optional<ThreadPool> pool_storage;
  if (threads > 1) pool_storage.emplace(threads);
  ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;
  const unsigned W = pool == nullptr ? 1 : pool->size();
  const ShardPlan plan(S, W);

  const std::span<const VertexId> n2o = g.new_to_old();
  const VertexId src = g.OldToNew(pool)[source];

  std::vector<uint32_t> dist(n, algo::kUnreachable);
  dist[src] = 0;
  // Frontier-vertex count per shard: shards at zero are never acquired in a
  // level — the segment-skipping that makes sparse levels cheap out of core.
  std::vector<uint64_t> active(S, 0), next_active(S, 0);
  active[g.shard_of(src)] = 1;
  // Byte-per-vertex frontier flags, double-buffered: cur_f is read-only
  // during a level's scan, next_f and dist are written only by the worker
  // owning the destination's shard block — so discoveries combine at the
  // destination with no message traffic and no write sharing.
  std::vector<uint8_t> cur_f(n, 0), next_f(n, 0);
  cur_f[src] = 1;
  std::vector<uint64_t> worker_edges(W, 0);

  for (uint32_t level = 0;; ++level) {
    UG_RETURN_NOT_OK(RunWorkers(pool, W, [&](unsigned w) -> Status {
      const uint32_t slo = plan.lo(w), shi = plan.hi(w);
      const VertexId db = g.shard_begin(slo);
      const VertexId de = g.shard_begin(shi);
      if (db == de) return Status::OK();
      std::fill(next_f.begin() + db, next_f.begin() + de, 0);
      for (uint32_t t = slo; t < shi; ++t) next_active[t] = 0;
      uint64_t scanned = 0;
      for (uint32_t s = 0; s < S; ++s) {
        if (active[s] == 0) continue;
        UG_ASSIGN_OR_RETURN(SegmentCache::Pin pin, g.AcquireShard(s));
        const SegmentView& view = pin.view();
        // Each frontier edge is counted once, by the worker that owns its
        // SOURCE shard (every worker scans every active segment here).
        const bool count_rows = s >= slo && s < shi;
        view.ScanRows(view.begin, view.end, [&](VertexId u, auto&& nbrs) {
          if (!cur_f[u]) return;
          if (count_rows) scanned += nbrs.size();
          for (VertexId v : nbrs) {
            if (v >= db && v < de && dist[v] == algo::kUnreachable) {
              dist[v] = level + 1;
              next_f[v] = 1;
              ++next_active[g.shard_of(v)];
            }
          }
        });
      }
      worker_edges[w] += scanned;
      return Status::OK();
    }));

    uint64_t total = 0;
    for (uint32_t t = 0; t < S; ++t) {
      active[t] = next_active[t];
      total += active[t];
    }
    if (total == 0) break;
    cur_f.swap(next_f);
  }

  std::vector<uint32_t> out(n);
  for (VertexId v = 0; v < n; ++v) out[n2o[v]] = dist[v];
  obs::AddCounter("shard.bfs.edges_scanned",
                  std::accumulate(worker_edges.begin(), worker_edges.end(),
                                  int64_t{0}));
  return out;
}

Result<algo::ComponentResult> ShardedComponents(
    const ShardedCsr& g, const ShardedTraversalOptions& options) {
  const VertexId n = g.num_vertices();
  const uint32_t S = g.num_shards();
  const unsigned threads = ResolveNumThreads(options.num_threads);
  std::optional<ThreadPool> pool_storage;
  if (threads > 1) pool_storage.emplace(threads);
  ThreadPool* pool = pool_storage ? &*pool_storage : nullptr;
  const unsigned W = pool == nullptr ? 1 : pool->size();
  const ShardPlan plan(S, W);

  // Jacobi min-label over the previous round's labels only: min is
  // order-insensitive, so the fixpoint (and every intermediate round) is
  // identical at any worker/shard layout. Reverse messages (v -> u's label)
  // make connectivity weak on directed graphs without an in-edge index, and
  // the cur[cur[u]] pointer jump keeps round counts near the label-prop
  // kernel's instead of the graph diameter.
  std::vector<uint32_t> cur(n), next(n);
  for (VertexId v = 0; v < n; ++v) cur[v] = v;

  // Arcs each worker decoded, as in ShardedPageRank.
  std::vector<uint64_t> worker_scanned(W, 0);
  uint32_t rounds = 0;

  while (true) {
    // Destination-owned fold: the owner seeds next[v] with the pointer
    // jump, then every worker scanning a row u min-merges label_u into its
    // OWN destinations, and u's owner min-merges the row minimum into
    // next[u]. Min commutes, so the round equals the serial Jacobi round.
    UG_RETURN_NOT_OK(RunWorkers(pool, W, [&](unsigned w) -> Status {
      const VertexId db = g.shard_begin(plan.lo(w));
      const VertexId de = g.shard_begin(plan.hi(w));
      if (db == de) return Status::OK();
      for (VertexId v = db; v < de; ++v) {
        next[v] = std::min(cur[v], cur[cur[v]]);
      }
      for (uint32_t s = 0; s < S; ++s) {
        UG_ASSIGN_OR_RETURN(SegmentCache::Pin pin, g.AcquireShard(s));
        const SegmentView& view = pin.view();
        worker_scanned[w] += view.num_edges;
        view.ScanRows(view.begin, view.end, [&](VertexId u, auto&& nbrs) {
          const uint32_t label_u = cur[u];
          if (u >= db && u < de) {
            uint32_t best = next[u];
            for (VertexId v : nbrs) {
              best = std::min(best, cur[v]);
              if (v >= db && v < de) next[v] = std::min(next[v], label_u);
            }
            next[u] = best;
          } else {
            for (VertexId v : nbrs) {
              if (v >= db && v < de) next[v] = std::min(next[v], label_u);
            }
          }
        });
      }
      return Status::OK();
    }));

    ++rounds;
    bool changed = false;
    for (VertexId v = 0; v < n; ++v) {
      if (next[v] != cur[v]) {
        changed = true;
        break;
      }
    }
    cur.swap(next);
    if (!changed) break;
    // next[] is stale after the swap; the coming round's seed loop rewrites
    // every entry, including degree-0 vertices.
  }

  // Canonical labels in ORIGINAL id space: first appearance in ascending
  // original order, exactly algo::WeaklyConnectedComponents' numbering.
  const std::span<const VertexId> old_to_new = g.OldToNew(pool);
  algo::ComponentResult result;
  result.label.resize(n);
  std::vector<uint32_t> canon(n, UINT32_MAX);
  uint32_t num = 0;
  for (VertexId old = 0; old < n; ++old) {
    const uint32_t root = cur[old_to_new[old]];
    if (canon[root] == UINT32_MAX) canon[root] = num++;
    result.label[old] = canon[root];
  }
  result.num_components = num;
  obs::AddCounter("shard.cc.edges_scanned",
                  std::accumulate(worker_scanned.begin(), worker_scanned.end(),
                                  int64_t{0}));
  obs::AddCounter("shard.cc.rounds", rounds);
  return result;
}

}  // namespace ubigraph::shard
