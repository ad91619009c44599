#include "io/edge_list_io.h"

#include <fstream>

#include "common/file.h"
#include "common/strings.h"
#include "io/parse_metrics.h"
#include "io/text_scan.h"

namespace ubigraph::io {

namespace {

Result<EdgeList> ParseEdgeListTextImpl(std::string_view text) {
  using internal::ParseErrorAt;
  EdgeList el;
  // Reserve from the bytes present: at most one edge per line.
  el.Reserve(internal::CountNewlines(text) + 1);
  internal::LineScanner lines(text);
  std::string_view line, f[3];
  while (lines.Next(&line)) {
    const size_t n = internal::SplitFields(line, f, 3);
    if (n == 0 || f[0][0] == '#') continue;
    if (n < 2 || n > 3) {
      return ParseErrorAt(lines.line_no(), "expected 'src dst [weight]'");
    }
    int64_t src = 0, dst = 0;
    if (!internal::ParseIntField(f[0], &src) || !internal::ParseIntField(f[1], &dst) ||
        src < 0 || dst < 0 || src > UINT32_MAX || dst > UINT32_MAX) {
      return ParseErrorAt(lines.line_no(), "invalid vertex id");
    }
    double weight = 1.0;
    if (n == 3 && !internal::ParseDoubleField(f[2], &weight)) {
      return ParseErrorAt(lines.line_no(), "invalid weight");
    }
    el.Add(static_cast<VertexId>(src), static_cast<VertexId>(dst), weight);
  }
  return el;
}

}  // namespace

Result<EdgeList> ParseEdgeListText(const std::string& text) {
  Result<EdgeList> result = ParseEdgeListTextImpl(text);
  internal::FlushParseStats("edge_list", text.size(), result.ok(),
                            result.ok() ? result->num_edges() : 0);
  return result;
}

std::string WriteEdgeListText(const EdgeList& edges) {
  std::string out;
  out += "# ubigraph edge list: " + std::to_string(edges.num_vertices()) +
         " vertices, " + std::to_string(edges.num_edges()) + " edges\n";
  for (const Edge& e : edges.edges()) {
    out += std::to_string(e.src);
    out += ' ';
    out += std::to_string(e.dst);
    if (e.weight != 1.0) {
      out += ' ';
      out += FormatDouble(e.weight, 17);
    }
    out += '\n';
  }
  return out;
}

Result<std::string> ReadFileToString(const std::string& path) {
  return ReadWholeFile(path);
}

Status WriteStringToFile(const std::string& content, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<EdgeList> ReadEdgeListFile(const std::string& path) {
  UG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
  return ParseEdgeListText(text);
}

Status WriteEdgeListFile(const EdgeList& edges, const std::string& path) {
  return WriteStringToFile(WriteEdgeListText(edges), path);
}

}  // namespace ubigraph::io
