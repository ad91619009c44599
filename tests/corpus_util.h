// Shared corpus builder for the cross-kernel differential tests (and any
// future randomized harness): four deterministic graph shapes spanning the
// survey's topology table — RMAT power-law (Table 7 "power-law"), LFR skewed
// communities, Zipf bipartite (user-item), and road-like bounded-degree
// lattices — each materialized in the three CSR representations kernels
// accept (plain, permuted, compressed). Everything is a pure function of
// (shape, seed): a failure message's triple is enough to replay it.
#pragma once

#include <string>
#include <vector>

#include "common/random.h"
#include "gen/generators.h"
#include "graph/compressed_csr.h"
#include "graph/csr_graph.h"
#include "graph/ordering.h"

namespace ubigraph::test {

enum class CorpusShape { kRmat, kLfr, kBipartite, kRoad };

inline const char* CorpusShapeName(CorpusShape s) {
  switch (s) {
    case CorpusShape::kRmat: return "rmat";
    case CorpusShape::kLfr: return "lfr";
    case CorpusShape::kBipartite: return "bipartite";
    case CorpusShape::kRoad: return "road";
  }
  return "?";
}

inline std::vector<CorpusShape> AllCorpusShapes() {
  return {CorpusShape::kRmat, CorpusShape::kLfr, CorpusShape::kBipartite,
          CorpusShape::kRoad};
}

/// Deterministic small corpus edge list (~512-600 vertices — sized so the
/// full shape x representation x thread-count sweep stays TSan-feasible).
inline EdgeList CorpusEdges(CorpusShape shape, uint64_t seed) {
  Rng rng(seed);
  switch (shape) {
    case CorpusShape::kRmat:
      return gen::Rmat(9, 4096, &rng).ValueOrDie();
    case CorpusShape::kLfr:
      return gen::LfrCommunity(512, {}, &rng).ValueOrDie().edges;
    case CorpusShape::kBipartite:
      return gen::BipartiteSkewed(256, 256, 3072, 1.0, &rng).ValueOrDie();
    case CorpusShape::kRoad:
      return gen::RoadLike(24, 24, {}, &rng).ValueOrDie();
  }
  return EdgeList();
}

/// Same shapes with deterministic positive weights in [0.1, 1.1) for the
/// SSSP kernels (the spread puts distances in many delta-stepping buckets).
inline EdgeList WeightedCorpusEdges(CorpusShape shape, uint64_t seed) {
  EdgeList el = CorpusEdges(shape, seed);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  for (Edge& e : el.mutable_edges()) e.weight = 0.1 + rng.NextDouble();
  return el;
}

/// The three representations every kernel family can read. All are built
/// undirected (symmetrized) so in-edge-requiring kernels (hybrid BFS, pull
/// PageRank) and undirected-only kernels (k-core) run on one graph; vertex
/// ids are shared between plain and compressed, while permuted relabels by
/// hub-cluster order and carries the new_to_old map back.
struct CorpusRepresentations {
  CsrGraph plain;
  PermutedCsr permuted;
  CompressedCsrGraph compressed;
};

inline CorpusRepresentations BuildRepresentations(const EdgeList& edges) {
  CsrOptions opts;
  opts.directed = false;
  opts.deduplicate = true;       // RMAT repeats edges; make all shapes simple
  opts.remove_self_loops = true;
  CorpusRepresentations out;
  EdgeList copy = edges;
  out.plain = CsrGraph::FromEdges(std::move(copy), opts).ValueOrDie();
  out.permuted =
      out.plain.Permute(MakeOrdering(out.plain, OrderingKind::kHubCluster))
          .ValueOrDie();
  out.compressed = CompressedCsrGraph::FromCsr(out.plain).ValueOrDie();
  return out;
}

/// old_to_new inverse of a PermutedCsr's new_to_old map.
inline std::vector<VertexId> OldToNew(const PermutedCsr& p) {
  std::vector<VertexId> inv(p.new_to_old.size());
  for (VertexId v = 0; v < p.new_to_old.size(); ++v) inv[p.new_to_old[v]] = v;
  return inv;
}

}  // namespace ubigraph::test
