#include "io/mmio.h"

#include <algorithm>
#include <cctype>
#include <sstream>

#include "common/strings.h"
#include "io/edge_list_io.h"
#include "io/parse_metrics.h"

namespace ubigraph::io {

namespace {

std::string Lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

Status ParseErrorAt(size_t line_no, const std::string& what) {
  return Status::ParseError("line " + std::to_string(line_no) + ": " + what);
}

Result<EdgeList> ParseMatrixMarketImpl(const std::string& text) {
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

Result<EdgeList> ParseTsvTriplesImpl(const std::string& text) {
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
