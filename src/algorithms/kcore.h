// Dense subgraphs (Table 9: "Finding Frequent or Densest Subgraphs", plus the
// k-core computations mentioned in §4.1/§4.3): k-core decomposition by peeling
// and Charikar's 2-approximation for the densest subgraph.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.h"

namespace ubigraph {
class CompressedCsrGraph;
}  // namespace ubigraph

namespace ubigraph::algo {

struct CoreOptions {
  /// Unused: every run is the serial Batagelj-Zaversnik peel, which a
  /// bucketed parallel peel did not beat at 4 threads (DESIGN.md
  /// "Priority-bucket execution"). Kept so callers that set a thread count
  /// on every kernel still compile.
  uint32_t num_threads = 1;
};

/// Core number per vertex (undirected view; parallel edges collapsed).
/// core[v] = largest k such that v belongs to the k-core.
std::vector<uint32_t> CoreDecomposition(const CsrGraph& g,
                                        const CoreOptions& options = {});
std::vector<uint32_t> CoreDecomposition(const CompressedCsrGraph& g,
                                        const CoreOptions& options = {});

/// The serial Batagelj-Zaversnik peel behind CoreDecomposition, O(V + E),
/// over a caller's simple undirected adjacency: row v lists v's distinct
/// neighbours (never v itself), and every edge appears in both endpoints'
/// rows. Row order does not matter. Flushes no counters.
std::vector<uint32_t> PeelCoreNumbers(
    std::span<const std::vector<VertexId>> adjacency);

/// Vertices of the k-core (possibly empty).
std::vector<VertexId> KCore(const CsrGraph& g, uint32_t k,
                            const CoreOptions& options = {});

/// Degeneracy = max core number (0 for empty graphs).
uint32_t Degeneracy(const CsrGraph& g, const CoreOptions& options = {});

struct DensestSubgraphResult {
  std::vector<VertexId> vertices;
  double density = 0.0;  // |E(S)| / |S| over the undirected simple view
};

/// Charikar's greedy peeling 2-approximation for the densest subgraph.
DensestSubgraphResult DensestSubgraphApprox(const CsrGraph& g);

}  // namespace ubigraph::algo
