// Synthetic graph generators. The survey found generators to be a valued
// non-query tool (Table 13) and §6.2 records explicit user requests for
// k-regular and random directed power-law generators — both implemented here,
// alongside the Graph500-style R-MAT generator used by the scalability bench.
#pragma once

#include <cstdint>

#include "common/random.h"
#include "common/result.h"
#include "graph/edge_list.h"

namespace ubigraph::gen {

/// G(n, m): m distinct directed edges chosen uniformly (no self-loops).
Result<EdgeList> ErdosRenyi(VertexId n, uint64_t m, Rng* rng);

/// G(n, p) via geometric skipping, directed, no self-loops.
Result<EdgeList> ErdosRenyiGnp(VertexId n, double p, Rng* rng);

struct RmatOptions {
  double a = 0.57;  // Graph500 defaults
  double b = 0.19;
  double c = 0.19;
  // d = 1 - a - b - c
  bool scramble_ids = true;  // permute vertex ids to break locality
};

/// R-MAT/Kronecker generator: 2^scale vertices, `num_edges` directed edges
/// (duplicates possible, as in Graph500).
Result<EdgeList> Rmat(uint32_t scale, uint64_t num_edges, Rng* rng,
                      RmatOptions options = {});

/// Barabási-Albert preferential attachment: starts from a small clique and
/// attaches each new vertex to `edges_per_vertex` existing vertices with
/// probability proportional to degree. Undirected edge list (stored once).
Result<EdgeList> BarabasiAlbert(VertexId n, uint32_t edges_per_vertex, Rng* rng);

/// Watts-Strogatz small world: ring of n vertices, each joined to k nearest
/// neighbors, each edge rewired with probability beta. Undirected.
Result<EdgeList> WattsStrogatz(VertexId n, uint32_t k, double beta, Rng* rng);

/// Random k-regular graph via pairing-model with retry (undirected, simple).
/// Requires n*k even and k < n.
Result<EdgeList> KRegular(VertexId n, uint32_t k, Rng* rng);

/// Random *directed* power-law graph (the §6.2 user request): out-degrees
/// drawn from a Zipf distribution with the given exponent, targets uniform.
Result<EdgeList> PowerLawDirected(VertexId n, double exponent, uint32_t max_degree,
                                  Rng* rng);

/// Deterministic shapes for tests and layouts.
EdgeList Path(VertexId n);
EdgeList Cycle(VertexId n);
EdgeList Star(VertexId leaves);
EdgeList Complete(VertexId n);
EdgeList Grid(VertexId rows, VertexId cols);
Result<EdgeList> RandomTree(VertexId n, Rng* rng);

/// A planted-partition graph: `num_communities` equal groups, intra-group
/// edge probability p_in, inter-group p_out. Ground-truth labels returned via
/// out param (vertex / group_size). Undirected.
Result<EdgeList> PlantedPartition(VertexId n, uint32_t num_communities, double p_in,
                                  double p_out, Rng* rng);

// ---------------------------------------------------------------------------
// Real-world-shaped corpus generators (ROADMAP item 5 / "SoK: The Faults in
// our Graph Benchmarks"). Each is driven entirely by the caller's Rng, never
// forks threads, and produces a bitwise-identical edge list for a
// fixed seed — the corpus differential and seed-stability tests depend on
// that.
// ---------------------------------------------------------------------------

struct LfrOptions {
  /// Mean of the (truncated) power-law degree sequence.
  double avg_degree = 8.0;
  /// Degree cap; 0 derives n/8. Also caps community size from below (a
  /// vertex must fit its intra-community stubs inside its community).
  uint32_t max_degree = 0;
  /// Exponent of the degree power law (tau1 in LFR; typically 2-3).
  double degree_exponent = 2.5;
  /// Exponent of the community-size power law (tau2; typically 1-2).
  double community_exponent = 1.5;
  /// Community size bounds; max 0 derives n/4.
  uint32_t min_community = 16;
  uint32_t max_community = 0;
  /// Mixing parameter: expected fraction of each vertex's edges that leave
  /// its community. 0 = pure communities, 1 = no community structure.
  double mu = 0.1;
};

/// LFR-style benchmark graph (Lancichinetti-Fortunato-Radicchi): power-law
/// degrees AND power-law community sizes with a tunable mixing fraction mu —
/// the "skewed community" shape real social/web graphs show and uniform
/// planted partitions miss. Undirected simple edge list (each edge stored
/// once) plus ground-truth community labels.
struct LfrGraph {
  EdgeList edges;
  std::vector<uint32_t> community;  // per vertex, dense ids from 0
};
Result<LfrGraph> LfrCommunity(VertexId n, const LfrOptions& options, Rng* rng);

/// Bipartite graph with Zipf-skewed degrees on both sides (user-item /
/// author-paper shape, Table 7's "bipartite" topology). Left vertices are
/// [0, left), right vertices [left, left+right); every edge goes left ->
/// right. `skew` is the Zipf exponent over per-side popularity ranks
/// (0 = uniform); duplicate picks are dropped, so the result is simple and
/// may hold slightly fewer than `num_edges` edges on dense requests.
Result<EdgeList> BipartiteSkewed(VertexId left, VertexId right,
                                 uint64_t num_edges, double skew, Rng* rng);

struct RoadLikeOptions {
  /// Probability an axis edge of the lattice is kept (roads have holes).
  double keep_prob = 0.95;
  /// Probability each cell gains one diagonal shortcut.
  double diagonal_prob = 0.05;
};

/// Road-network-like graph: a rows x cols lattice with randomly omitted
/// segments and sparse diagonal shortcuts. Bounded degree (<= 8), huge
/// diameter, no skew — the structural opposite of RMAT, and the shape where
/// direction-optimizing tricks historically lose. Undirected simple edge
/// list (each edge stored once).
Result<EdgeList> RoadLike(VertexId rows, VertexId cols,
                          const RoadLikeOptions& options, Rng* rng);

}  // namespace ubigraph::gen
