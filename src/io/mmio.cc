#include "io/mmio.h"

#include <algorithm>

#include "common/strings.h"
#include "io/edge_list_io.h"
#include "io/parse_metrics.h"
#include "io/text_scan.h"

namespace ubigraph::io {

namespace {

using internal::ParseErrorAt;
using internal::ParseIntField;
using internal::SplitFields;

Result<EdgeList> ParseMatrixMarketImpl(std::string_view text) {
  internal::LineScanner lines(text);
  std::string_view line;

  // Banner.
  if (!lines.Next(&line)) return Status::ParseError("empty document");
  std::string_view banner[5];
  const size_t banner_fields = SplitFields(line, banner, 5);
  if (banner_fields < 4 || ToLower(banner[0]) != "%%matrixmarket") {
    return ParseErrorAt(lines.line_no(), "expected '%%MatrixMarket' banner");
  }
  if (ToLower(banner[1]) != "matrix" || ToLower(banner[2]) != "coordinate") {
    return ParseErrorAt(lines.line_no(), "only 'matrix coordinate' files are supported");
  }
  const std::string field = ToLower(banner[3]);
  const bool pattern = field == "pattern";
  if (!pattern && field != "real" && field != "integer" && field != "double") {
    return ParseErrorAt(lines.line_no(),
                        "unsupported field type '" + std::string(banner[3]) + "'");
  }
  const std::string symmetry = banner_fields >= 5 ? ToLower(banner[4]) : "general";
  const bool symmetric = symmetry == "symmetric";
  if (!symmetric && symmetry != "general") {
    return ParseErrorAt(lines.line_no(), "unsupported symmetry '" + symmetry + "'");
  }

  // Size line: first non-comment, non-blank line.
  int64_t rows = 0, cols = 0, nnz = 0;
  bool have_size = false;
  std::string_view f[3];
  while (lines.Next(&line)) {
    const size_t n = SplitFields(line, f, 3);
    if (n == 0 || f[0][0] == '%') continue;
    if (n != 3 || !ParseIntField(f[0], &rows) || !ParseIntField(f[1], &cols) ||
        !ParseIntField(f[2], &nnz)) {
      return ParseErrorAt(lines.line_no(), "expected size line 'rows cols nnz'");
    }
    have_size = true;
    break;
  }
  if (!have_size) return Status::ParseError("missing size line");
  if (rows < 0 || cols < 0 || nnz < 0) {
    return ParseErrorAt(lines.line_no(), "negative dimension");
  }
  if (symmetric && rows != cols) {
    return ParseErrorAt(lines.line_no(), "symmetric matrix must be square");
  }
  const bool bipartite = rows != cols;
  const int64_t num_vertices = bipartite ? rows + cols : rows;
  if (num_vertices > UINT32_MAX) {
    return ParseErrorAt(lines.line_no(), "dimensions overflow");
  }
  if (nnz > 0 && (rows == 0 || cols == 0)) {
    return ParseErrorAt(lines.line_no(), "entries declared for an empty matrix");
  }

  EdgeList el(static_cast<VertexId>(num_vertices));
  // Reserve from the bytes actually present, never from the declared nnz: a
  // lying size line must not allocate. Each entry takes a line.
  const int64_t max_entries = static_cast<int64_t>(internal::CountNewlines(text)) + 1;
  const int64_t expected = std::min(nnz, max_entries);
  el.Reserve(static_cast<size_t>(symmetric ? 2 * expected : expected));
  const size_t want = pattern ? 2 : 3;
  int64_t read = 0;
  while (lines.Next(&line)) {
    const size_t n = SplitFields(line, f, want);
    if (n == 0 || f[0][0] == '%') continue;
    if (read == nnz) {
      return ParseErrorAt(lines.line_no(), "more entries than declared nnz");
    }
    if (n != want) {
      return ParseErrorAt(lines.line_no(),
                          pattern ? "expected 'i j'" : "expected 'i j value'");
    }
    int64_t i = 0, j = 0;
    if (!ParseIntField(f[0], &i) || !ParseIntField(f[1], &j)) {
      return ParseErrorAt(lines.line_no(), "invalid index");
    }
    if (i < 1 || i > rows || j < 1 || j > cols) {
      return ParseErrorAt(lines.line_no(), "index out of range");
    }
    double value = 1.0;
    if (!pattern && !internal::ParseDoubleField(f[2], &value)) {
      return ParseErrorAt(lines.line_no(), "invalid value");
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

Result<EdgeList> ParseTsvTriplesImpl(std::string_view text) {
  EdgeList el;
  // Reserve from the bytes present: at most one triple per line.
  el.Reserve(internal::CountNewlines(text) + 1);
  internal::LineScanner lines(text);
  std::string_view line, f[3];
  while (lines.Next(&line)) {
    const size_t n = SplitFields(line, f, 3);
    if (n == 0) continue;
    if (n != 3) return ParseErrorAt(lines.line_no(), "expected 'src\\tdst\\tweight'");
    int64_t src = 0, dst = 0;
    double weight = 1.0;
    if (!ParseIntField(f[0], &src) || !ParseIntField(f[1], &dst) ||
        !internal::ParseDoubleField(f[2], &weight)) {
      return ParseErrorAt(lines.line_no(), "invalid triple");
    }
    if (src < 1 || dst < 1 || src > UINT32_MAX || dst > UINT32_MAX) {
      return ParseErrorAt(lines.line_no(), "vertex id out of range (ids are 1-based)");
    }
    el.Add(static_cast<VertexId>(src - 1), static_cast<VertexId>(dst - 1), weight);
  }
  return el;
}

}  // namespace

Result<EdgeList> ParseMatrixMarket(const std::string& text) {
  Result<EdgeList> result = ParseMatrixMarketImpl(text);
  internal::FlushParseStats("mmio", text.size(), result.ok(),
                            result.ok() ? result->num_edges() : 0);
  return result;
}

std::string WriteMatrixMarket(const EdgeList& edges, bool pattern) {
  std::string out = "%%MatrixMarket matrix coordinate ";
  out += pattern ? "pattern" : "real";
  out += " general\n";
  out += "% written by ubigraph\n";
  const std::string n = std::to_string(edges.num_vertices());
  out += n + ' ' + n + ' ' + std::to_string(edges.num_edges()) + '\n';
  for (const Edge& e : edges.edges()) {
    out += std::to_string(e.src + 1);
    out += ' ';
    out += std::to_string(e.dst + 1);
    if (!pattern) {
      out += ' ';
      out += FormatDouble(e.weight, 17);
    }
    out += '\n';
  }
  return out;
}

Result<EdgeList> ParseTsvTriples(const std::string& text) {
  Result<EdgeList> result = ParseTsvTriplesImpl(text);
  internal::FlushParseStats("tsv", text.size(), result.ok(),
                            result.ok() ? result->num_edges() : 0);
  return result;
}

std::string WriteTsvTriples(const EdgeList& edges) {
  std::string out;
  for (const Edge& e : edges.edges()) {
    out += std::to_string(e.src + 1);
    out += '\t';
    out += std::to_string(e.dst + 1);
    out += '\t';
    out += FormatDouble(e.weight, 17);
    out += '\n';
  }
  return out;
}

Result<EdgeList> ReadMatrixMarketFile(const std::string& path) {
  UG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseMatrixMarket(text);
}

Status WriteMatrixMarketFile(const EdgeList& edges, const std::string& path,
                             bool pattern) {
  return WriteStringToFile(WriteMatrixMarket(edges, pattern), path);
}

}  // namespace ubigraph::io
