#include "stream/incremental_pagerank.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "common/parallel.h"

namespace ubigraph::stream {

namespace {

// Inserts v into a sorted multiset vector, keeping ascending order.
void SortedInsert(std::vector<VertexId>& vec, VertexId v) {
  vec.insert(std::upper_bound(vec.begin(), vec.end(), v), v);
}

// Erases one instance of v, which the caller has checked is present, from a
// sorted multiset vector.
void SortedEraseOne(std::vector<VertexId>& vec, VertexId v) {
  vec.erase(std::lower_bound(vec.begin(), vec.end(), v));
}

uint64_t Multiplicity(const std::vector<VertexId>& vec, VertexId v) {
  auto [lo, hi] = std::equal_range(vec.begin(), vec.end(), v);
  return static_cast<uint64_t>(hi - lo);
}

// Graphs with fewer arcs than this sweep on the calling thread: each sweep
// forks once, and below it the fork costs more than the gathers it spreads.
// On update_stream's ~8K-arc graph (two grain-1024 chunks, ~12 us a sweep)
// forking at 4 threads made whole batches 20-40% slower, and every sweep
// waited on a second CPU's wake-up, so batch times followed the host's load.
constexpr uint64_t kSerialSweepArcs = uint64_t{1} << 17;

}  // namespace

IncrementalPageRank::IncrementalPageRank(VertexId n, Options options)
    : n_(n),
      options_(options),
      in_adj_(n),
      out_degree_(n, 0),
      inv_outdeg_(n, 0.0),
      rank_(n, 0.0) {}

void IncrementalPageRank::UpdateInvOutDegree(VertexId v) {
  inv_outdeg_[v] =
      out_degree_[v] > 0 ? 1.0 / static_cast<double>(out_degree_[v]) : 0.0;
}

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
    engine.in_adj_[e.dst].push_back(e.src);
    ++engine.out_degree_[e.src];
  }
  for (auto& adj : engine.in_adj_) std::sort(adj.begin(), adj.end());
  engine.num_edges_ = edges.num_edges();
  for (VertexId v = 0; v < n; ++v) engine.UpdateInvOutDegree(v);
  const double teleport = 1.0 / n;
  for (VertexId v = 0; v < n; ++v) engine.rank_[v] = teleport;
  engine.initial_result_ = engine.RunSweeps();
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
        static_cast<int64_t>(Multiplicity(in_adj_[d.dst], d.src)) + adj;
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
      SortedInsert(in_adj_[d.dst], d.src);
      ++out_degree_[d.src];
      ++num_edges_;
    } else {
      SortedEraseOne(in_adj_[d.dst], d.src);
      --out_degree_[d.src];
      --num_edges_;
    }
    UpdateInvOutDegree(d.src);
  }

  BatchResult result = RunSweeps();
  IncrementalWork work;
  work.vertices_reactivated = result.vertices_reactivated;
  work.edges_rerelaxed = result.edges_rerelaxed;
  FlushIncrementalWork("pagerank", work);
  return result;
}

IncrementalPageRank::BatchResult IncrementalPageRank::RunSweeps() {
  const VertexId n = n_;
  const double d = options_.damping;
  const double teleport = 1.0 / n;
  const unsigned threads = num_edges_ < kSerialSweepArcs
                               ? 1
                               : ResolveNumThreads(options_.num_threads);

  // Every reduce, serial included, runs the same fixed grain-1024 chunk
  // tree, so every thread count produces bitwise-identical sums. Each sweep
  // is one reduce: besides its L1 change it produces the next sweep's
  // per-arc weights rank/outdeg and dangling mass, summed over the same
  // chunks a separate pass would use.
  struct Sums {
    double l1 = 0.0;
    double dangling = 0.0;
  };
  auto add = [](Sums a, Sums b) {
    return Sums{a.l1 + b.l1, a.dangling + b.dangling};
  };
  std::vector<double> next(n), wrank(n), next_wrank(n);
  // The warm start's weights: the batch may have changed out-degrees.
  double dangling = ParallelReduce(
      threads, 0, n, Sums{},
      [&](uint64_t b, uint64_t e) {
        Sums p;
        for (uint64_t v = b; v < e; ++v) {
          wrank[v] = rank_[v] * inv_outdeg_[v];
          if (inv_outdeg_[v] == 0.0) p.dangling += rank_[v];
        }
        return p;
      },
      add).dangling;

  BatchResult result;
  for (uint32_t sweep_no = 0; sweep_no < options_.max_sweeps; ++sweep_no) {
    // One full pull sweep: algo::PageRank's kPull update of every vertex.
    auto sweep = [&](uint64_t b, uint64_t e) {
      Sums p;
      for (uint64_t v = b; v < e; ++v) {
        double in_sum = 0.0;
        for (VertexId u : in_adj_[v]) in_sum += wrank[u];
        const double nv =
            (1.0 - d) * teleport + d * (in_sum + dangling * teleport);
        next[v] = nv;
        next_wrank[v] = nv * inv_outdeg_[v];
        if (inv_outdeg_[v] == 0.0) p.dangling += nv;
        p.l1 += std::abs(nv - rank_[v]);
      }
      return p;
    };
    const Sums sums = ParallelReduce(threads, 0, n, Sums{}, sweep, add);
    rank_.swap(next);
    wrank.swap(next_wrank);
    dangling = sums.dangling;
    result.sweeps = sweep_no + 1;
    result.final_delta = sums.l1;
    result.vertices_reactivated += n;
    result.edges_rerelaxed += num_edges_;
    if (sums.l1 < options_.tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace ubigraph::stream
