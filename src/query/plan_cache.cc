#include "query/plan_cache.h"

#include "common/strings.h"
#include "obs/metrics.h"
#include "query/cypher_lexer.h"
#include "query/cypher_parser.h"
#include "query/planner.h"
#include "query/vector_executor.h"

namespace ubigraph::query {

namespace {

bool IsComparator(TokenKind k) {
  return k == TokenKind::kEq || k == TokenKind::kNe || k == TokenKind::kLt ||
         k == TokenKind::kLe || k == TokenKind::kGt || k == TokenKind::kGe;
}

const char* SymbolFor(TokenKind k) {
  switch (k) {
    case TokenKind::kLParen: return "(";
    case TokenKind::kRParen: return ")";
    case TokenKind::kLBracket: return "[";
    case TokenKind::kRBracket: return "]";
    case TokenKind::kLBrace: return "{";
    case TokenKind::kRBrace: return "}";
    case TokenKind::kColon: return ":";
    case TokenKind::kComma: return ",";
    case TokenKind::kDot: return ".";
    case TokenKind::kDash: return "-";
    case TokenKind::kArrowRight: return "->";
    case TokenKind::kArrowLeft: return "<-";
    case TokenKind::kEq: return "=";
    case TokenKind::kNe: return "<>";
    case TokenKind::kLt: return "<";
    case TokenKind::kLe: return "<=";
    case TokenKind::kGt: return ">";
    case TokenKind::kGe: return ">=";
    case TokenKind::kStar: return "*";
    default: return "";
  }
}

}  // namespace

Result<NormalizedQuery> NormalizeCypher(const std::string& text) {
  UG_ASSIGN_OR_RETURN(std::vector<Token> tokens, TokenizeCypher(text));
  NormalizedQuery out;
  out.key.reserve(text.size());
  int brace_depth = 0;
  TokenKind prev = TokenKind::kEnd;
  // Space-separated rendering is injective: identifiers match
  // [A-Za-z_][A-Za-z0-9_]* so no token can contain a space or render as the
  // parameter marker '?'.
  auto append = [&](std::string_view piece) {
    if (!out.key.empty()) out.key += ' ';
    out.key += piece;
  };
  for (size_t i = 0; i < tokens.size(); ++i) {
    const Token& t = tokens[i];
    if (t.kind == TokenKind::kEnd) break;
    const TokenKind next =
        i + 1 < tokens.size() ? tokens[i + 1].kind : TokenKind::kEnd;
    switch (t.kind) {
      case TokenKind::kInteger:
        // Integers after '*' or '.' are variable-length hop bounds: they
        // change the plan shape (and are validated by the parser), so they
        // stay in the key.
        if (prev == TokenKind::kStar || prev == TokenKind::kDot) {
          append(std::to_string(t.integer));
        } else {
          append("?");
          out.params.push_back(t.integer);
        }
        break;
      case TokenKind::kFloat:
        append("?");
        out.params.push_back(t.floating);
        break;
      case TokenKind::kString:
        append("?");
        out.params.push_back(t.text);
        break;
      case TokenKind::kIdentifier: {
        const std::string low = ToLower(t.text);
        const bool boolean = low == "true" || low == "false";
        // true/false are literals only in literal positions — after ':'
        // inside a property map or adjacent to a comparator. Elsewhere they
        // are ordinary identifiers (variables, labels, keys).
        const bool literal_position =
            (prev == TokenKind::kColon && brace_depth > 0) || IsComparator(prev) ||
            IsComparator(next);
        if (boolean && literal_position) {
          append("?");
          out.params.push_back(low == "true");
        } else {
          append(t.text);  // no case folding: variables are case-sensitive
        }
        break;
      }
      case TokenKind::kLBrace:
        ++brace_depth;
        append("{");
        break;
      case TokenKind::kRBrace:
        if (brace_depth > 0) --brace_depth;
        append("}");
        break;
      default:
        append(SymbolFor(t.kind));
        break;
    }
    prev = t.kind;
  }
  return out;
}

QueryEngine::QueryEngine(const PropertyGraph& graph, ExecOptions options)
    : graph_(graph), options_(options) {}

void QueryEngine::RefreshIfStale() {
  if (view_ && view_->built_version() == graph_.version()) return;
  // The view catches up in place. Cached plans still go: they hold
  // dictionary ids resolved at plan time, and a name that was unknown then
  // resolved to kNoSuchId.
  if (!view_) view_.emplace();
  view_->CatchUp(graph_);
  cache_.clear();
  ++stats_.stats_rebuilds;
  obs::AddCounter("query.plan.stats_rebuilds", 1);
}

const LabelCsrView& QueryEngine::view() {
  RefreshIfStale();
  return *view_;
}

const PhysicalPlan* QueryEngine::CachedPlan(const std::string& key) const {
  auto it = cache_.find(key);
  return it == cache_.end() ? nullptr : it->second.get();
}

Result<QueryResult> QueryEngine::Run(const std::string& text) {
  if (!options_.vectorized) return RunCypher(graph_, text, options_);
  RefreshIfStale();

  Result<NormalizedQuery> normalized = NormalizeCypher(text);
  // Only a lexer error — identical to the error RunCypher would return.
  if (!normalized.ok()) return normalized.status();
  NormalizedQuery& nq = *normalized;

  auto it = cache_.find(nq.key);
  if (it != cache_.end() &&
      it->second->num_params == static_cast<int>(nq.params.size())) {
    ++stats_.cache_hits;
    obs::AddCounter("query.plan.cache_hits", 1);
    return ExecutePlan(graph_, *view_, *it->second, nq.params, options_.batch_size);
  }

  ++stats_.cache_misses;
  obs::AddCounter("query.plan.cache_misses", 1);
  UG_ASSIGN_OR_RETURN(CypherQuery query, ParseCypher(text));
  obs::AddCounter("query.plan.parses", 1);
  UG_ASSIGN_OR_RETURN(PlannedQuery planned, PlanQuery(graph_, view_->stats(), query));
  obs::AddCounter("query.plan.plans", 1);

  // The normalizer's positional literals must agree with the planner's
  // canonical AST-walk extraction for a cached plan to rebind future texts.
  // Defensive: on any disagreement, execute with the planner's own params and
  // skip caching rather than risk serving wrong rows later.
  bool rebindable = planned.params.size() == nq.params.size();
  for (size_t i = 0; rebindable && i < planned.params.size(); ++i) {
    if (!(planned.params[i] == nq.params[i])) rebindable = false;
  }
  if (rebindable) {
    if (cache_.size() >= kMaxCachedPlans) cache_.clear();
    cache_.emplace(nq.key, std::make_shared<const PhysicalPlan>(planned.plan));
  }
  return ExecutePlan(graph_, *view_, planned.plan, planned.params,
                     options_.batch_size);
}

}  // namespace ubigraph::query
