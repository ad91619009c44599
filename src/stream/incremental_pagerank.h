// Warm-started PageRank over GraphDelta batches. After a batch of edge
// inserts/deletes the engine does not restart from the teleport vector: it
// runs full pull sweeps (algo::PullSweeps, the kernel of algo::PageRank's
// kPull mode: every vertex gathered every sweep) from the previous fixpoint
// until one sweep's L1 change falls under tolerance. A batch perturbs the
// fixpoint a little, so the warm run certifies in far fewer sweeps than a
// cold one.
//
// Why full sweeps rather than a frontier of touched vertices: a frontier
// sweep must skip small changes and move the skipped vertices by a dangling
// drift term. On a dense DAG whose PageRank mass sits mostly on dangling
// vertices (the saturated update_stream window: ~80% dangling mass) the
// error those partial sweeps leave adds up, each certifying full sweep
// exposes it, and batches run out of sweeps unconverged (DESIGN.md
// "Incremental maintenance" has the numbers). A full sweep's residual is
// the true one, so a batch certifies on the first sweep that meets it.
//
// Exactness: the maintained scores satisfy the same fixpoint criterion a
// from-scratch run certifies. Two IEEE-754 trajectories that satisfy the
// same criterion need not be bitwise equal — see DESIGN.md "Incremental
// maintenance" for the measured ulp-level gap vs. cold recompute — but
// results ARE bitwise-identical across thread counts: every sweep reduces
// over the same fixed grain-1024 chunk tree (ParallelReduce in
// src/common/parallel.h, which runs it inline at one thread). The initial
// run of Create is a cold run: it matches algo::PageRank's kPull scores and
// sweep count bitwise on a CSR of the same arcs, at equal tolerance and
// budget.
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
  /// A sweep whose L1 change falls under this threshold certifies.
  double tolerance = 1e-9;
  /// Sweep budget per batch (and for the initial compute). A warm 64-delta
  /// batch of the update_stream benchmark certifies in ~20 sweeps (at most
  /// 35 over 3,000 batches of seeds 1–16), a cold start in 27–37; the budget
  /// only binds on adversarial batches, in which case the BatchResult
  /// reports converged = false and scores hold the last iterate.
  uint32_t max_sweeps = 200;
  /// 0 = hardware_concurrency, 1 = serial (default). Graphs under
  /// kSerialPassArcs (2^17) arcs sweep serially at any setting, where a fork
  /// costs more than it spreads. Scores are bitwise-identical at every
  /// setting.
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
    /// Vertex gathers performed (sweeps * num_vertices).
    uint64_t vertices_reactivated = 0;
    /// In-edges traversed while gathering (sweeps * num_edges) — compare
    /// against iterations * num_edges for a from-scratch run.
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

  /// Runs full pull sweeps from rank_ until one certifies convergence (or
  /// the budget runs out).
  BatchResult RunSweeps();
  void UpdateInvOutDegree(VertexId v);

  VertexId n_ = 0;
  Options options_;
  uint64_t num_edges_ = 0;
  // Sorted ascending per vertex; parallel arcs appear with multiplicity. The
  // ascending order matches CsrGraph's sorted neighbor ranges, so gathers
  // accumulate in the same order as the batch kernel's.
  std::vector<std::vector<VertexId>> in_adj_;
  std::vector<uint32_t> out_degree_;
  std::vector<double> inv_outdeg_;
  std::vector<double> rank_;
  BatchResult initial_result_;
};

}  // namespace ubigraph::stream
