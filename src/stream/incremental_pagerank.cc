#include "stream/incremental_pagerank.h"

#include <algorithm>

#include "algorithms/pagerank.h"

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
  UG_RETURN_NOT_OK(ValidateDeltaRemovals(
      deltas, [this](VertexId src, VertexId dst) {
        return Multiplicity(in_adj_[dst], src);
      }));

  // The batch is valid: mutate adjacency, degrees, and edge count.
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
  const double teleport = 1.0 / n_;
  const algo::PullSweepsResult run = algo::PullSweeps(
      [this](VertexId v) { return std::span<const VertexId>(in_adj_[v]); },
      [teleport](VertexId) { return teleport; }, inv_outdeg_, num_edges_,
      options_.damping, options_.tolerance, options_.max_sweeps,
      options_.num_threads, rank_);
  BatchResult result;
  result.sweeps = run.sweeps;
  result.final_delta = run.final_delta;
  result.converged = run.converged;
  result.vertices_reactivated = uint64_t{run.sweeps} * n_;
  result.edges_rerelaxed = uint64_t{run.sweeps} * num_edges_;
  return result;
}

}  // namespace ubigraph::stream
