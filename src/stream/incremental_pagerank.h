// Delta-maintained PageRank over GraphDelta batches. Extends the kDelta
// power-iteration mode (src/algorithms/pagerank.cc) from "skip quiescent
// vertices within one run" to "stay warm across structural updates": after a
// batch of edge inserts/deletes only the vertices whose in-sums or source
// weights actually changed are re-activated, and sweeps proceed from the
// previous fixpoint instead of a cold teleport vector.
//
// Exactness: a batch is converged only when a *full* sweep's L1 residual
// falls under tolerance (the same certification rule as kDelta), so the
// maintained scores satisfy the same fixpoint criterion a from-scratch run
// certifies. Note that two IEEE-754 fixpoint trajectories that satisfy the
// same criterion need not be bitwise equal — see DESIGN.md "Incremental
// maintenance" for the measured ulp-level gap vs. cold recompute — but
// results ARE bitwise-identical across thread counts: every path reduces
// over the same fixed grain-1024 chunk tree (ParallelReduce in
// src/common/parallel.h, which runs it inline at one thread).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "graph/edge_list.h"
#include "stream/incremental.h"

namespace ubigraph::stream {

struct IncrementalPageRankOptions {
  double damping = 0.85;
  /// L1 residual threshold certified on full sweeps.
  double tolerance = 1e-9;
  /// Sweep budget per batch (and for the initial compute). Warm-started
  /// batches normally finish in a handful of sweeps; the budget only binds
  /// on adversarial batches, in which case the BatchResult reports
  /// converged = false and scores hold the best iterate.
  uint32_t max_sweeps = 200;
  /// 0 = hardware_concurrency, 1 = serial (default). Scores are
  /// bitwise-identical at every setting.
  uint32_t num_threads = 1;
};

class IncrementalPageRank {
 public:
  using Options = IncrementalPageRankOptions;

  /// Work and convergence report for one ApplyBatch (or the initial run).
  struct BatchResult {
    uint32_t sweeps = 0;
    double final_delta = 0.0;
    bool converged = false;
    /// Vertex gathers performed (sum of frontier sizes across sweeps).
    uint64_t vertices_reactivated = 0;
    /// In-edges traversed while gathering — compare against
    /// iterations * num_edges for a from-scratch run.
    uint64_t edges_rerelaxed = 0;
  };

  /// Builds the engine over a directed edge snapshot (multigraph: parallel
  /// arcs each contribute) and runs the initial computation to fixpoint.
  /// Fails on an empty graph or damping outside [0, 1).
  static Result<IncrementalPageRank> Create(const EdgeList& edges,
                                            Options options = {});

  /// Applies an ordered batch of edge deltas and re-converges. The batch is
  /// validated first and rejected atomically: OutOfRange for endpoints
  /// outside the vertex universe, NotFound for removing an arc the graph
  /// (adjusted for earlier deltas in the same batch) does not hold. Flushes
  /// stream.incremental.pagerank.* counters on success.
  Result<BatchResult> ApplyBatch(std::span<const GraphDelta> deltas);

  /// Current maintained scores (sum to ~1).
  const std::vector<double>& scores() const { return rank_; }
  VertexId num_vertices() const { return n_; }
  uint64_t num_edges() const { return num_edges_; }
  /// Report of the initial from-snapshot computation done by Create.
  const BatchResult& initial_result() const { return initial_result_; }

 private:
  IncrementalPageRank(VertexId n, Options options);

  /// Runs kDelta-style sweeps starting from the given active frontier until
  /// a full sweep certifies convergence (or the budget runs out).
  BatchResult RunSweeps(std::vector<VertexId> seeds, bool start_full);

  VertexId n_ = 0;
  Options options_;
  uint64_t num_edges_ = 0;
  // Sorted ascending per vertex; parallel arcs appear with multiplicity. The
  // ascending order matches CsrGraph's sorted neighbor ranges, so gathers
  // accumulate in the same order as the batch kernel's.
  std::vector<std::vector<VertexId>> out_adj_;
  std::vector<std::vector<VertexId>> in_adj_;
  std::vector<double> inv_outdeg_;
  std::vector<double> rank_;
  // Dangling mass of the sweep that produced rank_ — the drift baseline for
  // quiescent vertices (see the kDelta drift rule in algorithms/pagerank.cc).
  double prev_dangling_ = 0.0;
  BatchResult initial_result_;
};

}  // namespace ubigraph::stream
