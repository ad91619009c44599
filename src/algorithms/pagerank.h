// PageRank (Table 9: "Ranking & Centrality Scores") by power iteration, with
// dangling-vertex handling, convergence reporting, and personalization.
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "common/result.h"
#include "graph/csr_graph.h"

namespace ubigraph {
class CompressedCsrGraph;
}

namespace ubigraph::algo {

/// How one power-iteration sweep traverses edges.
enum class PageRankMode : uint8_t {
  /// Pull when the in-edge index is available, push otherwise.
  kAuto,
  /// Gather over InNeighbors: no atomics, contiguous writes to next[].
  /// Requires in-edges on directed graphs.
  kPull,
  /// Scatter over OutNeighbors. Needs no in-edge index; the parallel path
  /// accumulates into per-worker arrays merged in fixed order, so it stays
  /// deterministic at a fixed thread count.
  kPush,
};

struct PageRankOptions {
  double damping = 0.85;
  /// L1 convergence threshold.
  double tolerance = 1e-9;
  uint32_t max_iterations = 100;
  /// Optional personalization vector (teleport distribution). Empty = uniform.
  /// Must sum to ~1 and have size == num_vertices when provided.
  std::vector<double> personalization;
  /// 0 = hardware_concurrency, 1 = exact serial path (default), >= 2 = that
  /// many workers. Pull scores are bitwise-identical at every setting (see
  /// PullSweeps). Parallel push merges per-worker arrays in fixed order, so
  /// its scores are bitwise-reproducible at a fixed thread count and within
  /// `tolerance` of the serial path.
  uint32_t num_threads = 1;
  PageRankMode mode = PageRankMode::kAuto;
};

struct PageRankResult {
  std::vector<double> scores;  // sums to 1
  uint32_t iterations = 0;
  double final_delta = 0.0;    // L1 change in last iteration
  bool converged = false;
  /// The mode actually run (resolves kAuto).
  PageRankMode mode = PageRankMode::kPull;
};

/// Runs power iteration in the selected mode. kPull requires in-edges for
/// directed graphs and fails with InvalidArgument otherwise; kPush always
/// works; kAuto picks pull when it can.
Result<PageRankResult> PageRank(const CsrGraph& g, PageRankOptions options = {});

/// Same kernel on the varint/delta-gap compressed backend (the two overloads
/// share one implementation through the NeighborRangeGraph seam, so scores
/// are bitwise-identical to the plain-CSR run at the same mode and threads).
Result<PageRankResult> PageRank(const CompressedCsrGraph& g,
                                PageRankOptions options = {});

/// What one PullSweeps run did.
struct PullSweepsResult {
  uint32_t sweeps = 0;
  double final_delta = 0.0;  // L1 change in the last sweep
  bool converged = false;
};

/// The pull power iteration behind PageRank's kPull mode and
/// stream::IncrementalPageRank. From the iterate in `rank`, each sweep sets
///   next[v] = (1 - d) t(v) + d (sum of rank[u] * inv_outdeg[u] over u in
///             in_row(v) + dangling * t(v))
/// where d = damping, t = teleport and dangling is the rank held by vertices
/// with no out-arcs. Sweeps run until one's L1 change falls under `tolerance`
/// or `max_sweeps` have run; `rank` then holds the last iterate.
/// in_row(v) is v's in-neighbour range with parallel arcs repeated (two
/// callers agree bitwise when their rows list the same ids in the same
/// order); inv_outdeg[v] is 1 / outdeg(v), or 0 for a dangling vertex.
///
/// Each sweep is one ParallelReduce over fixed grain-1024 chunks. Besides its
/// L1 change it yields the next sweep's rank * inv_outdeg weights and the next
/// dangling mass, summed over the same chunk tree, so the iterates are
/// bitwise-identical at every thread count. On graphs with fewer than
/// kSerialPassArcs arcs (`num_arcs`) every sweep runs on the caller.
template <typename InRowFn, typename TeleportFn>
PullSweepsResult PullSweeps(InRowFn in_row, TeleportFn teleport,
                            std::span<const double> inv_outdeg,
                            uint64_t num_arcs, double damping, double tolerance,
                            uint32_t max_sweeps, uint32_t num_threads,
                            std::vector<double>& rank) {
  const uint64_t n = rank.size();
  const unsigned threads =
      num_arcs < kSerialPassArcs ? 1 : ResolveNumThreads(num_threads);
  struct Sums {
    double l1 = 0.0;
    double dangling = 0.0;
  };
  auto add = [](Sums a, Sums b) {
    return Sums{a.l1 + b.l1, a.dangling + b.dangling};
  };
  std::vector<double> next(n), wrank(n), next_wrank(n);
  // The first sweep's weights and dangling mass.
  double dangling = ParallelReduce(
      threads, 0, n, Sums{},
      [&](uint64_t b, uint64_t e) {
        Sums p;
        for (uint64_t v = b; v < e; ++v) {
          wrank[v] = rank[v] * inv_outdeg[v];
          if (inv_outdeg[v] == 0.0) p.dangling += rank[v];
        }
        return p;
      },
      add).dangling;

  PullSweepsResult result;
  for (uint32_t sweep_no = 0; sweep_no < max_sweeps; ++sweep_no) {
    auto sweep = [&](uint64_t b, uint64_t e) {
      // Local copies: read through the captures, these doubles would be
      // reloaded after every store to next[] (~5% of a small sweep).
      const double d = damping;
      const double mass = dangling;
      Sums p;
      for (uint64_t v = b; v < e; ++v) {
        double in_sum = 0.0;
        for (VertexId u : in_row(static_cast<VertexId>(v))) in_sum += wrank[u];
        const double t = teleport(static_cast<VertexId>(v));
        const double nv = (1.0 - d) * t + d * (in_sum + mass * t);
        next[v] = nv;
        next_wrank[v] = nv * inv_outdeg[v];
        if (inv_outdeg[v] == 0.0) p.dangling += nv;
        p.l1 += std::abs(nv - rank[v]);
      }
      return p;
    };
    const Sums sums = ParallelReduce(threads, 0, n, Sums{}, sweep, add);
    rank.swap(next);
    wrank.swap(next_wrank);
    dangling = sums.dangling;
    result.sweeps = sweep_no + 1;
    result.final_delta = sums.l1;
    if (sums.l1 < tolerance) {
      result.converged = true;
      break;
    }
  }
  return result;
}

/// Indices of the k highest-scoring vertices, descending (ties by vertex id).
std::vector<VertexId> TopK(const std::vector<double>& scores, size_t k);

/// HITS (Kleinberg): hub and authority scores by alternating power iteration,
/// L2-normalized each round. The other classic "ranking & centrality"
/// computation of Table 9's web-graph papers. Requires in-edges.
struct HitsResult {
  std::vector<double> hub;
  std::vector<double> authority;
  uint32_t iterations = 0;
  bool converged = false;
};
Result<HitsResult> Hits(const CsrGraph& g, uint32_t max_iterations = 100,
                        double tolerance = 1e-10);

}  // namespace ubigraph::algo
