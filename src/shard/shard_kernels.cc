#include "shard/shard_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "algorithms/traversal.h"
#include "common/parallel.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace ubigraph::shard {
namespace {

/// Contiguous ascending destination ownership: worker w owns shards
/// [w*per, (w+1)*per) — the grid columns [lo(w), hi(w)) — and every
/// per-vertex accumulator in their vertex range. Each worker reads only its
/// own columns' blocks, segment by ascending segment, so every destination
/// is folded by one worker in one global ascending source sweep — the
/// serial push association — and every arc is decoded once.
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

/// Runs fn(w) for every worker slot. Workers record failures into their own
/// slot of `status`; the first non-OK (lowest w) wins, deterministically.
template <typename Fn>
Status RunWorkers(unsigned workers, Fn&& fn) {
  std::vector<Status> status(workers);
  ForkJoin(workers, [&](unsigned w) { status[w] = fn(w); });
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
  const unsigned W = ResolveNumThreads(options.num_threads);
  const ShardPlan plan(S, W);

  const double d = options.damping;
  const double tp = 1.0 / n;
  const std::span<const uint32_t> degrees = g.degrees();
  // Same operands as the in-RAM kernel's inv_outdeg (1.0 / double(degree)),
  // so every contribution is the identical double. Cached on the graph —
  // repeated kernel calls no longer rebuild it.
  const std::span<const double> inv_outdeg = g.InvOutDegrees(W);

  std::vector<double> rank(n, tp), next(n);
  // Arcs each worker decoded: its columns' in-arcs, so E per iteration.
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
    // columns, seeds it with base, and folds in its own blocks of every
    // segment in ascending order — each next[v] is built by one worker in
    // globally ascending source order, i.e. the serial push association,
    // with zero message buffering.
    UG_RETURN_NOT_OK(RunWorkers(W, [&](unsigned w) -> Status {
      const VertexId db = g.shard_begin(plan.lo(w));
      const VertexId de = g.shard_begin(plan.hi(w));
      if (db == de) return Status::OK();
      for (VertexId v = db; v < de; ++v) next[v] = base;
      uint64_t arcs = 0;
      auto fold = [&](VertexId u, auto ids) {
        const double contrib = d * rank[u] * inv_outdeg[u];
        for (VertexId v : ids) {
          next[v] += contrib;
          ++arcs;
        }
      };
      for (uint32_t s = 0; s < S; ++s) {
        UG_ASSIGN_OR_RETURN(SegmentCache::Pin pin, g.AcquireShard(s));
        const SegmentView& view = pin.view();
        for (uint32_t t = plan.lo(w); t < plan.hi(w); ++t) {
          UG_RETURN_NOT_OK(view.ScanBlock(t, g.shard_begin(t),
                                          g.shard_begin(t + 1), fold));
        }
      }
      worker_scanned[w] += arcs;
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
  const unsigned W = ResolveNumThreads(options.num_threads);
  const ShardPlan plan(S, W);

  const std::span<const VertexId> n2o = g.new_to_old();
  const VertexId src = g.OldToNew(W)[source];

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
    UG_RETURN_NOT_OK(RunWorkers(W, [&](unsigned w) -> Status {
      const uint32_t slo = plan.lo(w), shi = plan.hi(w);
      const VertexId db = g.shard_begin(slo);
      const VertexId de = g.shard_begin(shi);
      if (db == de) return Status::OK();
      std::fill(next_f.begin() + db, next_f.begin() + de, 0);
      std::fill(next_active.begin() + slo, next_active.begin() + shi, 0);
      uint64_t scanned = 0;
      uint32_t t = 0;  // the column being scanned
      // Each frontier arc is decoded once, by the owner of its column; a
      // non-frontier row is stepped over on its entry header.
      auto expand = [&](VertexId u, auto ids) {
        if (!cur_f[u]) return;
        for (VertexId v : ids) {
          ++scanned;
          if (dist[v] == algo::kUnreachable) {
            dist[v] = level + 1;
            next_f[v] = 1;
            ++next_active[t];
          }
        }
      };
      for (uint32_t s = 0; s < S; ++s) {
        if (active[s] == 0) continue;
        UG_ASSIGN_OR_RETURN(SegmentCache::Pin pin, g.AcquireShard(s));
        const SegmentView& view = pin.view();
        for (t = slo; t < shi; ++t) {
          UG_RETURN_NOT_OK(view.ScanBlock(t, g.shard_begin(t),
                                          g.shard_begin(t + 1), expand));
        }
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
  const unsigned W =
      g.num_edges() < kSerialPassArcs ? 1 : ResolveNumThreads(options.num_threads);
  const ShardPlan plan(S, W);

  // One sweep in PageRank's access pattern, linking every decoded arc. Union is
  // symmetric, so each arc counts once whatever its direction, and the forest's
  // roots end as each component's smallest relabeled id whatever the interleaving.
  algo::ConcurrentUnionFind uf(n);
  std::vector<uint64_t> worker_scanned(W, 0);
  UG_RETURN_NOT_OK(RunWorkers(W, [&](unsigned w) -> Status {
    if (plan.lo(w) == plan.hi(w)) return Status::OK();
    uint64_t arcs = 0;
    auto link = [&](VertexId u, auto ids) {
      for (VertexId v : ids) {
        uf.Link(u, v);
        ++arcs;
      }
    };
    for (uint32_t s = 0; s < S; ++s) {
      UG_ASSIGN_OR_RETURN(SegmentCache::Pin pin, g.AcquireShard(s));
      const SegmentView& view = pin.view();
      for (uint32_t t = plan.lo(w); t < plan.hi(w); ++t) {
        UG_RETURN_NOT_OK(view.ScanBlock(t, g.shard_begin(t),
                                        g.shard_begin(t + 1), link));
      }
    }
    worker_scanned[w] = arcs;
    return Status::OK();
  }));
  uf.Compress(W);

  // Canonical labels in ORIGINAL id space: first appearance in ascending
  // original order, exactly algo::WeaklyConnectedComponents' numbering.
  const std::span<const VertexId> old_to_new = g.OldToNew(W);
  const std::span<const uint32_t> root = uf.parents();
  std::vector<uint32_t> rep(n);
  for (VertexId old = 0; old < n; ++old) rep[old] = root[old_to_new[old]];
  obs::AddCounter("shard.cc.edges_scanned",
                  std::accumulate(worker_scanned.begin(), worker_scanned.end(),
                                  int64_t{0}));
  return algo::CanonicalComponents(rep);
}

}  // namespace ubigraph::shard
