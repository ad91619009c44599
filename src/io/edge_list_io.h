// Plain-text edge list IO ("CSV / Text files" in Table 17): one edge per
// line, "src dst [weight]", '#' comments, blank lines ignored.
#pragma once

#include <cstddef>
#include <string>

#include "common/result.h"
#include "graph/edge_list.h"

namespace ubigraph::io {

/// Edge-list input of at least this many bytes parses in two passes over
/// chunks of this size on the process fork-join team. Smaller input parses
/// in one pass on the caller: two passes over one chunk cost ~1.5x one.
/// The chunk count depends on the input size alone, so the result never
/// depends on the thread count.
inline constexpr size_t kParseChunkBytes = size_t{1} << 20;

/// Parses edge-list text. Vertex ids must be non-negative integers.
Result<EdgeList> ParseEdgeListText(const std::string& text);

/// Serializes an edge list (weights written only when != 1).
std::string WriteEdgeListText(const EdgeList& edges);

/// File wrappers. A regular file of kParseChunkBytes or more is never held
/// whole: each chunk streams through a small per-thread read window.
Result<EdgeList> ReadEdgeListFile(const std::string& path);
Status WriteEdgeListFile(const EdgeList& edges, const std::string& path);

/// Shared helpers for the other IO modules.
Result<std::string> ReadFileToString(const std::string& path);
Status WriteStringToFile(const std::string& content, const std::string& path);

}  // namespace ubigraph::io
