// The neighbor-range concept that lets CsrGraph and CompressedCsrGraph share
// kernel code. A kernel templated on NeighborRangeGraph only assumes what the
// concept states: sized vertex/edge counts, directedness, degrees, and
// neighbor accessors returning something range-for can iterate (span for the
// plain CSR, a block-decode range for the compressed one). Kernels that need
// more — weights, HasEdge, raw offset arrays — stay CsrGraph-only.
#pragma once

#include <concepts>
#include <cstdint>
#include <ranges>
#include <string_view>

#include "common/result.h"
#include "graph/edge_list.h"

namespace ubigraph {

template <typename G>
concept NeighborRangeGraph = requires(const G& g, VertexId v,
                                      std::string_view caller) {
  { g.num_vertices() } -> std::convertible_to<VertexId>;
  { g.num_edges() } -> std::convertible_to<uint64_t>;
  { g.directed() } -> std::convertible_to<bool>;
  { g.has_in_edges() } -> std::convertible_to<bool>;
  { g.OutDegree(v) } -> std::convertible_to<uint64_t>;
  { g.InDegree(v) } -> std::convertible_to<uint64_t>;
  { g.RequireInEdges(caller) } -> std::same_as<Status>;
  requires std::ranges::input_range<decltype(g.OutNeighbors(v))>;
  requires std::ranges::input_range<decltype(g.InNeighbors(v))>;
  requires std::convertible_to<
      std::ranges::range_value_t<decltype(g.OutNeighbors(v))>, VertexId>;
  requires std::convertible_to<
      std::ranges::range_value_t<decltype(g.InNeighbors(v))>, VertexId>;
};

}  // namespace ubigraph
