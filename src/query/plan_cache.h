// Prepared-plan cache: a token-level query normalizer that parameterizes
// literals out of the query text, and a QueryEngine that keeps one
// LabelCsrView + a bounded plan cache per PropertyGraph. When the graph's
// mutation version moves, the view catches up in place and the plans are
// dropped.
//
// Normalization rules (see DESIGN.md "Vectorized query execution"):
//  - integers and floats become parameters, EXCEPT integers preceded by '*'
//    or '.' (variable-length hop bounds: they change plan shape and are
//    validated by the parser, so they stay in the key);
//  - strings always become parameters;
//  - the identifiers true/false become parameters only in literal positions:
//    after ':' inside a property map, or adjacent to a comparison operator
//    (elsewhere they can be variables, labels, or property keys);
//  - identifiers are NOT case-folded — variables are case-sensitive, so
//    "MATCH (n) RETURN n" and "match (n) return n" key separately (correct
//    over clever).
// Parameters are extracted in token order, which equals the planner's
// canonical AST-walk order (paths -> nodes -> properties, WHERE lhs-before-
// rhs, LIMIT last), so a cached plan rebinds positionally.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "graph/label_csr.h"
#include "graph/property_graph.h"
#include "query/cypher_executor.h"
#include "query/plan.h"

namespace ubigraph::query {

/// A normalized query: the shape key plus extracted literal values.
struct NormalizedQuery {
  std::string key;
  std::vector<PropertyValue> params;
};

/// Normalizes query text. Total on any lexable query (in particular on every
/// parse-accepted query); fails only when the lexer fails, with the lexer's
/// error.
Result<NormalizedQuery> NormalizeCypher(const std::string& text);

/// Executes Cypher over one PropertyGraph with a warm CSR view and a
/// prepared-plan cache. Reads through the cache: a hit performs zero parse or
/// plan work (pinned by the query.plan.* counters). Any graph mutation
/// (detected via PropertyGraph::version()) catches the view + statistics up
/// with the appended vertices and edges (LabelCsrView::CatchUp) and drops all
/// cached plans before the next query runs: a plan holds dictionary ids
/// resolved at plan time.
class QueryEngine {
 public:
  /// Keeps a reference to the graph; the graph must outlive the engine.
  explicit QueryEngine(const PropertyGraph& graph, ExecOptions options = {});

  /// Parses/plans/executes (or rebinds a cached plan). Matches RunCypher's
  /// results and errors exactly.
  Result<QueryResult> Run(const std::string& text);

  /// Current view (catching it up if needed) — exposed for tests and benches.
  const LabelCsrView& view();

  struct Stats {
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t stats_rebuilds = 0;  // view catch-ups, the first build included
  };
  const Stats& stats() const { return stats_; }
  size_t cache_size() const { return cache_.size(); }

  /// Cached plan for a query shape, or nullptr (tests).
  const PhysicalPlan* CachedPlan(const std::string& key) const;

  static constexpr size_t kMaxCachedPlans = 256;

 private:
  void RefreshIfStale();

  const PropertyGraph& graph_;
  ExecOptions options_;
  std::optional<LabelCsrView> view_;
  std::unordered_map<std::string, std::shared_ptr<const PhysicalPlan>> cache_;
  Stats stats_;
};

}  // namespace ubigraph::query
