// Oracle for the in-place text scanner (src/io/text_scan.h): the retired
// line-at-a-time parsers for edge lists, Matrix Market and GraphChallenge
// TSV. Each copies a line out with std::getline and splits it with
// Trim + SplitWhitespace into a fresh vector of strings. The library
// parsers must return the same EdgeList (weights compared by bits) and the
// same Status on every input (tests/fuzz_smoke_test.cc).
#pragma once

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/strings.h"
#include "graph/edge_list.h"

namespace ubigraph::oracle {

namespace detail {

inline std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

inline Status ParseErrorAt(size_t line_no, const std::string& what) {
  return Status::ParseError("line " + std::to_string(line_no) + ": " + what);
}

}  // namespace detail

inline Result<EdgeList> ParseEdgeListText(const std::string& text) {
  EdgeList el;
  size_t line_no = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = Trim(line);
    if (sv.empty() || sv[0] == '#') continue;
    std::vector<std::string> fields = SplitWhitespace(sv);
    if (fields.size() < 2 || fields.size() > 3) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": expected 'src dst [weight]'");
    }
    int64_t src = 0, dst = 0;
    if (!ParseInt64(fields[0], &src) || !ParseInt64(fields[1], &dst) ||
        src < 0 || dst < 0 || src > UINT32_MAX || dst > UINT32_MAX) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": invalid vertex id");
    }
    double weight = 1.0;
    if (fields.size() == 3 && !ParseDouble(fields[2], &weight)) {
      return Status::ParseError("line " + std::to_string(line_no) +
                                ": invalid weight");
    }
    el.Add(static_cast<VertexId>(src), static_cast<VertexId>(dst), weight);
  }
  return el;
}

inline Result<EdgeList> ParseMatrixMarket(const std::string& text) {
  using detail::Lower;
  using detail::ParseErrorAt;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;

  // Banner.
  if (!std::getline(in, line)) return Status::ParseError("empty document");
  ++line_no;
  std::vector<std::string> banner = SplitWhitespace(Trim(line));
  if (banner.size() < 4 || Lower(banner[0]) != "%%matrixmarket") {
    return ParseErrorAt(line_no, "expected '%%MatrixMarket' banner");
  }
  if (Lower(banner[1]) != "matrix" || Lower(banner[2]) != "coordinate") {
    return ParseErrorAt(line_no, "only 'matrix coordinate' files are supported");
  }
  const std::string field = Lower(banner[3]);
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer" && field != "double") {
    return ParseErrorAt(line_no, "unsupported field type '" + banner[3] + "'");
  }
  const std::string symmetry = banner.size() >= 5 ? Lower(banner[4]) : "general";
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    return ParseErrorAt(line_no, "unsupported symmetry '" + symmetry + "'");
  }

  // Size line: first non-comment, non-blank line.
  int64_t rows = 0, cols = 0, nnz = 0;
  bool have_size = false;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = Trim(line);
    if (sv.empty() || sv[0] == '%') continue;
    std::vector<std::string> fields = SplitWhitespace(sv);
    if (fields.size() != 3 || !ParseInt64(fields[0], &rows) ||
        !ParseInt64(fields[1], &cols) || !ParseInt64(fields[2], &nnz)) {
      return ParseErrorAt(line_no, "expected size line 'rows cols nnz'");
    }
    have_size = true;
    break;
  }
  if (!have_size) return Status::ParseError("missing size line");
  if (rows < 0 || cols < 0 || nnz < 0) {
    return ParseErrorAt(line_no, "negative dimension");
  }
  if (symmetric && rows != cols) {
    return ParseErrorAt(line_no, "symmetric matrix must be square");
  }
  const bool bipartite = rows != cols;
  const int64_t num_vertices = bipartite ? rows + cols : rows;
  if (num_vertices > UINT32_MAX) return ParseErrorAt(line_no, "dimensions overflow");
  if (nnz > 0 && (rows == 0 || cols == 0)) {
    return ParseErrorAt(line_no, "entries declared for an empty matrix");
  }

  EdgeList el(static_cast<VertexId>(num_vertices));
  // Reserve from the bytes actually present, never from the declared nnz: a
  // lying size line must not allocate. The shortest entry line is "i j\n".
  const int64_t max_entries = static_cast<int64_t>(text.size() / 4) + 1;
  const int64_t expected = std::min(nnz, max_entries);
  el.Reserve(static_cast<size_t>(symmetric ? 2 * expected : expected));
  int64_t read = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = Trim(line);
    if (sv.empty() || sv[0] == '%') continue;
    if (read == nnz) return ParseErrorAt(line_no, "more entries than declared nnz");
    std::vector<std::string> fields = SplitWhitespace(sv);
    const size_t want = pattern ? 2 : 3;
    if (fields.size() != want) {
      return ParseErrorAt(line_no, pattern ? "expected 'i j'" : "expected 'i j value'");
    }
    int64_t i = 0, j = 0;
    if (!ParseInt64(fields[0], &i) || !ParseInt64(fields[1], &j)) {
      return ParseErrorAt(line_no, "invalid index");
    }
    if (i < 1 || i > rows || j < 1 || j > cols) {
      return ParseErrorAt(line_no, "index out of range");
    }
    double value = 1.0;
    if (!pattern && !ParseDouble(fields[2], &value)) {
      return ParseErrorAt(line_no, "invalid value");
    }
    const VertexId src = static_cast<VertexId>(i - 1);
    const VertexId dst =
        static_cast<VertexId>(bipartite ? rows + (j - 1) : j - 1);
    el.Add(src, dst, value);
    if (symmetric && src != dst) el.Add(dst, src, value);
    ++read;
  }
  if (read != nnz) {
    return Status::ParseError("truncated: " + std::to_string(read) + " of " +
                              std::to_string(nnz) + " declared entries");
  }
  el.EnsureVertices(static_cast<VertexId>(num_vertices));
  return el;
}

inline Result<EdgeList> ParseTsvTriples(const std::string& text) {
  using detail::ParseErrorAt;
  EdgeList el;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view sv = Trim(line);
    if (sv.empty()) continue;
    std::vector<std::string> fields = SplitWhitespace(sv);
    if (fields.size() != 3) {
      return ParseErrorAt(line_no, "expected 'src\\tdst\\tweight'");
    }
    int64_t src = 0, dst = 0;
    double weight = 1.0;
    if (!ParseInt64(fields[0], &src) || !ParseInt64(fields[1], &dst) ||
        !ParseDouble(fields[2], &weight)) {
      return ParseErrorAt(line_no, "invalid triple");
    }
    if (src < 1 || dst < 1 || src > UINT32_MAX || dst > UINT32_MAX) {
      return ParseErrorAt(line_no, "vertex id out of range (ids are 1-based)");
    }
    el.Add(static_cast<VertexId>(src - 1), static_cast<VertexId>(dst - 1), weight);
  }
  return el;
}

}  // namespace ubigraph::oracle
