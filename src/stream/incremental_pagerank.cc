#include "stream/incremental_pagerank.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/parallel.h"
#include "graph/frontier.h"

namespace ubigraph::stream {

namespace {

// Inserts v into a sorted multiset vector, keeping ascending order.
void SortedInsert(std::vector<VertexId>& vec, VertexId v) {
  vec.insert(std::upper_bound(vec.begin(), vec.end(), v), v);
}

// Erases one instance of v from a sorted multiset vector. Returns false if
// absent.
bool SortedEraseOne(std::vector<VertexId>& vec, VertexId v) {
  auto it = std::lower_bound(vec.begin(), vec.end(), v);
  if (it == vec.end() || *it != v) return false;
  vec.erase(it);
  return true;
}

uint64_t Multiplicity(const std::vector<VertexId>& vec, VertexId v) {
  auto [lo, hi] = std::equal_range(vec.begin(), vec.end(), v);
  return static_cast<uint64_t>(hi - lo);
}

}  // namespace

IncrementalPageRank::IncrementalPageRank(VertexId n, Options options)
    : n_(n),
      options_(options),
      out_adj_(n),
      in_adj_(n),
      inv_outdeg_(n, 0.0),
      rank_(n, 0.0) {}

Result<IncrementalPageRank> IncrementalPageRank::Create(const EdgeList& edges,
                                                        Options options) {
  const VertexId n = edges.num_vertices();
  if (n == 0) return Status::Invalid("IncrementalPageRank on empty graph");
  if (options.damping < 0.0 || options.damping >= 1.0) {
    return Status::Invalid("damping must be in [0, 1)");
  }
  IncrementalPageRank engine(n, options);
  for (const Edge& e : edges.edges()) {
    if (e.src >= n || e.dst >= n) {
      return Status::OutOfRange("edge endpoint outside vertex universe");
    }
    engine.out_adj_[e.src].push_back(e.dst);
    engine.in_adj_[e.dst].push_back(e.src);
  }
  for (auto& adj : engine.out_adj_) std::sort(adj.begin(), adj.end());
  for (auto& adj : engine.in_adj_) std::sort(adj.begin(), adj.end());
  engine.num_edges_ = edges.num_edges();
  for (VertexId v = 0; v < n; ++v) {
    if (!engine.out_adj_[v].empty()) {
      engine.inv_outdeg_[v] =
          1.0 / static_cast<double>(engine.out_adj_[v].size());
    }
  }
  const double teleport = 1.0 / n;
  for (VertexId v = 0; v < n; ++v) engine.rank_[v] = teleport;
  engine.initial_result_ = engine.RunSweeps({}, /*start_full=*/true);
  return engine;
}

Result<IncrementalPageRank::BatchResult> IncrementalPageRank::ApplyBatch(
    std::span<const GraphDelta> deltas) {
  UG_RETURN_NOT_OK(ValidateDeltaEndpoints(deltas, n_));

  // Phase 1: validate removals against current multiplicities adjusted by
  // earlier deltas of this batch, so a bad batch is rejected before any
  // engine state mutates.
  std::map<std::pair<VertexId, VertexId>, int64_t> adjust;
  for (size_t i = 0; i < deltas.size(); ++i) {
    const GraphDelta& d = deltas[i];
    int64_t& adj = adjust[{d.src, d.dst}];
    if (d.kind == GraphDelta::Kind::kInsert) {
      ++adj;
      continue;
    }
    const int64_t live =
        static_cast<int64_t>(Multiplicity(out_adj_[d.src], d.dst)) + adj;
    if (live <= 0) {
      return Status::NotFound("delta " + std::to_string(i) + " removes arc (" +
                              std::to_string(d.src) + ", " +
                              std::to_string(d.dst) + ") with no live copy");
    }
    --adj;
  }

  // Phase 2: mutate adjacency, degrees, and edge count.
  for (const GraphDelta& d : deltas) {
    if (d.kind == GraphDelta::Kind::kInsert) {
      SortedInsert(out_adj_[d.src], d.dst);
      SortedInsert(in_adj_[d.dst], d.src);
      ++num_edges_;
    } else {
      SortedEraseOne(out_adj_[d.src], d.dst);
      SortedEraseOne(in_adj_[d.dst], d.src);
      --num_edges_;
    }
    const size_t deg = out_adj_[d.src].size();
    inv_outdeg_[d.src] = deg > 0 ? 1.0 / static_cast<double>(deg) : 0.0;
  }

  // Phase 3: seed the frontier with the vertices whose pull inputs changed —
  // each delta's destination (its in-sum gained or lost an arc) and every
  // current out-neighbor of its source (the source's per-arc weight
  // rank/outdeg changed). Source dangling transitions are global and handled
  // by the drift term inside the sweeps.
  std::vector<VertexId> seeds;
  for (const GraphDelta& d : deltas) {
    seeds.push_back(d.dst);
    for (VertexId w : out_adj_[d.src]) seeds.push_back(w);
  }

  BatchResult result = RunSweeps(std::move(seeds), /*start_full=*/false);
  IncrementalWork work;
  work.vertices_reactivated = result.vertices_reactivated;
  work.edges_rerelaxed = result.edges_rerelaxed;
  FlushIncrementalWork("pagerank", work);
  return result;
}

IncrementalPageRank::BatchResult IncrementalPageRank::RunSweeps(
    std::vector<VertexId> seeds, bool start_full) {
  const VertexId n = n_;
  const double d = options_.damping;
  const double teleport = 1.0 / n;
  // Same conservative skip threshold as kDelta: n sub-threshold per-vertex
  // changes sum to under tolerance.
  const double thr =
      options_.tolerance > 0 ? options_.tolerance / static_cast<double>(n) : 0.0;

  const unsigned threads = ResolveNumThreads(options_.num_threads);

  Frontier active(n), changed(n), next_active(n);
  if (start_full) {
    active.SetAll();
  } else {
    active.ClearDense();
    for (VertexId v : seeds) active.Set(v);
    active.RecountDense();
  }

  std::vector<double> next(n, 0.0), wrank(n, 0.0);
  // Every reduce, serial included, runs the same fixed grain-1024 chunk
  // tree, so every thread count produces bitwise-identical sums.
  auto plus = [](double a, double b) { return a + b; };
  auto dangling_map = [&](uint64_t b, uint64_t e) {
    double sum = 0.0;
    for (uint64_t v = b; v < e; ++v) {
      if (inv_outdeg_[v] == 0.0) sum += rank_[v];
    }
    return sum;
  };

  BatchResult result;
  for (uint32_t sweep_no = 0; sweep_no < options_.max_sweeps; ++sweep_no) {
    const double dangling = ParallelReduce(threads, 0, n, 0.0, dangling_map, plus);
    ParallelFor(threads, 0, n,
                [&](uint64_t v) { wrank[v] = rank_[v] * inv_outdeg_[v]; });
    result.vertices_reactivated += active.size();
    changed.ClearDense();
    // One sweep chunk: gather active vertices, drift-update quiescent ones.
    // Returns (L1 delta, in-edges gathered). Mirrors the kDelta sweep in
    // algorithms/pagerank.cc, including the rule that only an exactly
    // re-gathered vertex may flag itself as still moving.
    using Partial = std::pair<double, uint64_t>;
    auto sweep = [&](uint64_t b, uint64_t e) {
      Partial p{0.0, 0};
      for (uint64_t i = b; i < e; ++i) {
        VertexId v = static_cast<VertexId>(i);
        double nv;
        if (active.Test(v)) {
          const auto& in = in_adj_[v];
          double in_sum = 0.0;
          for (VertexId u : in) in_sum += wrank[u];
          p.second += in.size();
          nv = (1.0 - d) * teleport + d * (in_sum + dangling * teleport);
          if (std::abs(nv - rank_[v]) > thr) {
            if (threads > 1) {
              changed.AtomicTestAndSet(v);
            } else {
              changed.Set(v);
            }
          }
        } else {
          nv = rank_[v] + d * teleport * (dangling - prev_dangling_);
        }
        next[v] = nv;
        p.first += std::abs(nv - rank_[v]);
      }
      return p;
    };
    auto combine = [](Partial a, Partial b) {
      return Partial{a.first + b.first, a.second + b.second};
    };
    Partial total = ParallelReduce(threads, 0, n, Partial{0.0, 0}, sweep, combine);
    result.edges_rerelaxed += total.second;
    prev_dangling_ = dangling;
    const bool was_full = active.size() == n;
    rank_.swap(next);
    result.sweeps = sweep_no + 1;
    result.final_delta = total.first;
    if (total.first < options_.tolerance) {
      if (was_full) {
        // Certified: every vertex was re-gathered exactly this sweep, so the
        // residual is the true one (a partial sweep's L1 includes drift-only
        // approximations and could under-report).
        result.converged = true;
        break;
      }
      active.SetAll();
      continue;
    }
    changed.RecountDense();
    if (changed.size() > n / 8 || changed.empty()) {
      active.SetAll();
    } else {
      changed.ToSparse();
      next_active.ClearDense();
      uint64_t marked = 0;
      for (VertexId v : changed.Vertices()) {
        for (VertexId w : out_adj_[v]) {
          marked += next_active.AtomicTestAndSet(w) ? 1 : 0;
        }
      }
      next_active.SetCount(marked);
      std::swap(active, next_active);
    }
  }
  return result;
}

}  // namespace ubigraph::stream
