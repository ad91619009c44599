// Differential + planner + plan-cache tests for the vectorized Cypher engine.
//
// The row-at-a-time interpreter (ExecuteCypherInterpreted) is the semantics
// oracle: the vectorized engine must produce bitwise-identical results —
// same columns, same rows, same row ORDER — at every batch size, on every
// query, on every graph shape.
#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "gen/generators.h"
#include "graph/label_csr.h"
#include "graph/property_graph.h"
#include "obs/metrics.h"
#include "query/cypher_executor.h"
#include "query/cypher_parser.h"
#include "query/eval_common.h"
#include "query/plan.h"
#include "query/plan_cache.h"
#include "query/planner.h"
#include "query/vector_executor.h"

namespace ubigraph::query {
namespace {

// ---------------------------------------------------------------------------
// Differential harness

std::string DescribeRows(const QueryResult& r) {
  std::string out;
  for (const auto& row : r.rows) {
    out += "[";
    for (const PropertyValue& v : row) {
      out += ValueToString(v);
      out += ", ";
    }
    out += "]\n";
  }
  return out;
}

void ExpectIdentical(const PropertyGraph& g, const std::string& text) {
  Result<CypherQuery> parsed = ParseCypher(text);
  if (!parsed.ok()) {
    // Parse errors are shared by both engines; nothing to compare.
    Result<QueryResult> vec = RunCypher(g, text, {.vectorized = true});
    ASSERT_FALSE(vec.ok()) << text;
    return;
  }
  Result<QueryResult> oracle = ExecuteCypherInterpreted(g, *parsed);
  for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
    Result<QueryResult> vec =
        ExecuteCypher(g, *parsed, {.vectorized = true, .batch_size = batch});
    ASSERT_EQ(oracle.ok(), vec.ok())
        << text << " (batch=" << batch << "): oracle "
        << (oracle.ok() ? "ok" : oracle.status().message()) << ", vectorized "
        << (vec.ok() ? "ok" : vec.status().message());
    if (!oracle.ok()) {
      EXPECT_EQ(oracle.status().message(), vec.status().message()) << text;
      continue;
    }
    EXPECT_EQ(oracle->columns, vec->columns) << text;
    EXPECT_EQ(oracle->rows, vec->rows)
        << text << " (batch=" << batch << ")\noracle:\n"
        << DescribeRows(*oracle) << "vectorized:\n"
        << DescribeRows(*vec);
  }
}

// The same five-vertex social/product graph query_test.cc uses.
PropertyGraph SampleGraph() {
  PropertyGraph g;
  VertexId alice = g.AddVertex("Person");
  VertexId bob = g.AddVertex("Person");
  VertexId carol = g.AddVertex("Person");
  VertexId laptop = g.AddVertex("Product");
  VertexId phone = g.AddVertex("Product");
  g.SetVertexProperty(alice, "name", std::string("alice")).Abort();
  g.SetVertexProperty(alice, "age", static_cast<int64_t>(34)).Abort();
  g.SetVertexProperty(bob, "name", std::string("bob")).Abort();
  g.SetVertexProperty(bob, "age", static_cast<int64_t>(29)).Abort();
  g.SetVertexProperty(carol, "name", std::string("carol")).Abort();
  g.SetVertexProperty(carol, "age", static_cast<int64_t>(41)).Abort();
  g.SetVertexProperty(laptop, "name", std::string("laptop")).Abort();
  g.SetVertexProperty(laptop, "price", 1200.0).Abort();
  g.SetVertexProperty(phone, "name", std::string("phone")).Abort();
  g.SetVertexProperty(phone, "price", 800.0).Abort();
  g.AddEdge(alice, bob, "knows").ValueOrDie();
  g.AddEdge(bob, carol, "knows").ValueOrDie();
  g.AddEdge(alice, laptop, "bought").ValueOrDie();
  g.AddEdge(bob, laptop, "bought").ValueOrDie();
  g.AddEdge(carol, phone, "bought").ValueOrDie();
  return g;
}

// Every executor query from query_test.cc, plus shapes that stress the
// planner's join reordering, direction flipping, and fallback paths.
const char* const kCorpus[] = {
    // --- query_test.cc coverage ---
    "MATCH (p:Person) RETURN p.name",
    "MATCH (a:Person)-[:knows]->(b:Person) RETURN a.name, b.name",
    "MATCH (a:Person)<-[:knows]-(b:Person) RETURN a.name, b.name",
    "MATCH (a:Person)-[:knows]-(b:Person) RETURN a.name, b.name",
    "MATCH (p:Person) WHERE p.age > 30 RETURN p.name",
    "MATCH (p:Person) WHERE p.name = 'bob' RETURN p.age",
    "MATCH (p:Person) WHERE p.age <> 29 RETURN p.name",
    "MATCH (p:Person {age: 29}) RETURN p.name",
    "MATCH (a:Person)-[:knows]->(b:Person)-[:knows]->(c:Person) "
    "RETURN a.name, c.name",
    "MATCH (p:Person)-[:bought]->(x:Product) RETURN count(*)",
    "MATCH (p:Person) RETURN p.name, p.age ORDER BY p.age DESC",
    "MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 2",
    "MATCH (p:Person) WHERE p.age > 29.5 RETURN p.name",
    "MATCH (p:Product) WHERE p.price < 1000 RETURN p.name",
    "MATCH (p:Ghost) RETURN p.name",
    // --- planner stress ---
    "MATCH (a:Person {name: 'alice'})-[:knows*1..3]->(b) RETURN b.name",
    "MATCH (a)-[:knows*1..3]->(b:Product) RETURN a.name",
    "MATCH (a)-[:knows*1..2]->(b:Person {name: 'carol'}) RETURN a.name",
    "MATCH (a:Person)-[:knows*2..2]->(c) RETURN a.name, c.name",
    "MATCH (a:Person)-[*1..2]-(b:Product) RETURN a.name, b.name",
    "MATCH (a)-[:knows]->(a) RETURN a",
    "MATCH (a:Person), (b:Product) RETURN count(*)",
    "MATCH (a:Person), (b:Product) WHERE a.age > 30 RETURN a.name, b.name",
    "MATCH (p:Person)-[:bought]->(x)<-[:bought]-(q:Person) "
    "WHERE p.name < q.name RETURN p.name, q.name, x.name",
    "MATCH (a:Person)-[:knows]->(b)-[:bought]->(x:Product) "
    "RETURN a.name, x.name ORDER BY x.name DESC",
    "MATCH (p:Person) RETURN p.name, count(*)",
    "MATCH (p:Person) RETURN p",
    "MATCH (p) RETURN count(*)",
    "MATCH (p:Person) RETURN p.name LIMIT 0",
    "MATCH (p:Person) RETURN p.age ORDER BY p.age LIMIT 0",
    "MATCH (p:Person) RETURN p.name LIMIT 1",
    "MATCH (p:Person) WHERE p.age > 25 RETURN count(*) LIMIT 1",
    "MATCH (p:Person) WHERE p.nosuchkey = 1 RETURN p.name",
    "MATCH (p:Person) RETURN p.nosuchkey",
    "MATCH (p:Person)-[:nosuchtype]->(q) RETURN p.name",
    "MATCH (p:Person {name: 30}) RETURN p.name",  // exact-variant: no match
    "MATCH (p:Person) WHERE p.age = 34.0 RETURN p.name",  // numeric compare
    "MATCH (p:Person) WHERE 1 < 2 RETURN p.name",  // literal-only WHERE
    "MATCH (p:Person) WHERE p.name > p.age RETURN p.name",  // incomparable
    "MATCH (a:Person)-[:knows]->(b) WHERE a.age > b.age RETURN a.name",
};

TEST(VectorizedDifferential, SampleGraphCorpus) {
  PropertyGraph g = SampleGraph();
  for (const char* text : kCorpus) {
    ExpectIdentical(g, text);
  }
}

TEST(VectorizedDifferential, SharedErrors) {
  PropertyGraph g = SampleGraph();
  // Validation errors must be byte-identical between engines.
  ExpectIdentical(g, "MATCH (p:Person) WHERE q.age > 1 RETURN p");
  ExpectIdentical(g, "MATCH (p:Person) RETURN q.name");
  ExpectIdentical(g, "MATCH (p:Person) RETURN p.name ORDER BY p.age");
}

// Deterministic labels/properties over a generated topology: label L0/L1/L2
// by vertex id mod 3, integer property "w" = v * 7 % 50, edge types t0/t1 by
// edge index parity.
PropertyGraph FromEdgeList(const EdgeList& el) {
  PropertyGraph g;
  for (VertexId v = 0; v < el.num_vertices(); ++v) {
    VertexId id = g.AddVertex("L" + std::to_string(v % 3));
    g.SetVertexProperty(id, "w", static_cast<int64_t>(v * 7 % 50)).Abort();
  }
  size_t i = 0;
  for (const Edge& e : el.edges()) {
    g.AddEdge(e.src, e.dst, i++ % 2 == 0 ? "t0" : "t1").ValueOrDie();
  }
  return g;
}

const char* const kShapeCorpus[] = {
    "MATCH (a:L0)-[:t0]->(b:L1) RETURN count(*)",
    "MATCH (a:L0)-[:t0]->(b)-[:t1]->(c:L2) WHERE a.w < 20 RETURN count(*)",
    "MATCH (a:L1)-[]-(b:L1) RETURN count(*)",
    "MATCH (a:L2 {w: 14})-[:t0*1..2]->(b) RETURN b ORDER BY b",
    "MATCH (a)-[:t1]->(a) RETURN count(*)",
    "MATCH (a:L0) WHERE a.w >= 28 RETURN a.w ORDER BY a.w DESC LIMIT 5",
};

TEST(VectorizedDifferential, RmatShape) {
  Rng rng(42);
  EdgeList el = gen::Rmat(/*scale=*/6, /*num_edges=*/256, &rng).ValueOrDie();
  PropertyGraph g = FromEdgeList(el);
  for (const char* text : kShapeCorpus) ExpectIdentical(g, text);
}

TEST(VectorizedDifferential, PathShape) {
  PropertyGraph g = FromEdgeList(gen::Path(40));
  for (const char* text : kShapeCorpus) ExpectIdentical(g, text);
  // Long chains exercise the var-length BFS hop window.
  ExpectIdentical(g, "MATCH (a:L0)-[*2..4]->(b) RETURN count(*)");
}

TEST(VectorizedDifferential, BipartiteSkewedShape) {
  Rng rng(7);
  EdgeList el =
      gen::BipartiteSkewed(/*left=*/8, /*right=*/60, /*num_edges=*/200,
                           /*skew=*/1.2, &rng)
          .ValueOrDie();
  PropertyGraph g = FromEdgeList(el);
  for (const char* text : kShapeCorpus) ExpectIdentical(g, text);
}

TEST(VectorizedDifferential, EmptyGraph) {
  PropertyGraph g;
  ExpectIdentical(g, "MATCH (p) RETURN count(*)");
  ExpectIdentical(g, "MATCH (p:Person)-[:knows]->(q) RETURN p.name");
}

// ---------------------------------------------------------------------------
// Planner unit tests

TEST(Planner, StartsFromRareLabelAndExpandsTowardHub) {
  // 100 Hub vertices, 2 Rare vertices, edges Rare -> Hub: the cheap plan
  // scans Rare and expands forward, never scanning all Hubs.
  PropertyGraph g;
  std::vector<VertexId> hubs;
  for (int i = 0; i < 100; ++i) hubs.push_back(g.AddVertex("Hub"));
  for (int i = 0; i < 2; ++i) {
    VertexId r = g.AddVertex("Rare");
    for (int j = 0; j < 10; ++j) {
      g.AddEdge(r, hubs[(i * 10 + j) % hubs.size()], "links").ValueOrDie();
    }
  }
  LabelCsrView view = LabelCsrView::Build(g);
  CypherQuery q =
      ParseCypher("MATCH (h:Hub)<-[:links]-(r:Rare) RETURN count(*)")
          .ValueOrDie();
  PlannedQuery planned = PlanQuery(g, view.stats(), q).ValueOrDie();
  EXPECT_EQ(planned.plan.DebugString(), "Scan(r) Expand(r->h)");
  // And the reverse phrasing picks the same join order.
  CypherQuery q2 =
      ParseCypher("MATCH (r:Rare)-[:links]->(h:Hub) RETURN count(*)")
          .ValueOrDie();
  PlannedQuery planned2 = PlanQuery(g, view.stats(), q2).ValueOrDie();
  EXPECT_EQ(planned2.plan.DebugString(), "Scan(r) Expand(r->h)");
}

TEST(Planner, PropertyFilterMakesScanCheaper) {
  // Equal label counts, but a property filter shrinks one side's estimate.
  PropertyGraph g;
  for (int i = 0; i < 20; ++i) g.AddVertex("A");
  for (int i = 0; i < 20; ++i) g.AddVertex("B");
  g.AddEdge(0, 20, "e").ValueOrDie();
  LabelCsrView view = LabelCsrView::Build(g);
  CypherQuery q =
      ParseCypher("MATCH (a:A)-[:e]->(b:B {name: 'x'}) RETURN count(*)")
          .ValueOrDie();
  PlannedQuery planned = PlanQuery(g, view.stats(), q).ValueOrDie();
  EXPECT_EQ(planned.plan.DebugString(), "Scan(b) Expand(b->a)");
}

TEST(Planner, MissingLabelPlansToZeroRows) {
  PropertyGraph g = SampleGraph();
  LabelCsrView view = LabelCsrView::Build(g);
  CypherQuery q =
      ParseCypher("MATCH (p:Ghost)-[:knows]->(q:Person) RETURN count(*)")
          .ValueOrDie();
  PlannedQuery planned = PlanQuery(g, view.stats(), q).ValueOrDie();
  ASSERT_FALSE(planned.plan.steps.empty());
  // The unknown label resolves to the no-match sentinel, not an error.
  EXPECT_EQ(planned.plan.steps[0].label_id, kNoSuchId);
  QueryResult r =
      ExecutePlan(g, view, planned.plan, planned.params, 1024).ValueOrDie();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 0);
}

TEST(Planner, EmptyGraphPlansGracefully) {
  PropertyGraph g;
  LabelCsrView view = LabelCsrView::Build(g);
  CypherQuery q =
      ParseCypher("MATCH (a:X)-[:y*1..3]->(b) RETURN count(*)").ValueOrDie();
  PlannedQuery planned = PlanQuery(g, view.stats(), q).ValueOrDie();
  QueryResult r =
      ExecutePlan(g, view, planned.plan, planned.params, 1024).ValueOrDie();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 0);
}

TEST(Planner, ReversedVarLengthIsNotDrivenBackward) {
  // Var-length edges are forward-only: when only the destination is bound,
  // the planner must not emit a backward VarExpand (BFS direction is not
  // symmetric over the hop window). It may scan + pair-check instead; the
  // differential corpus pins the results, here we pin the plan shape.
  PropertyGraph g = SampleGraph();
  LabelCsrView view = LabelCsrView::Build(g);
  CypherQuery q =
      ParseCypher("MATCH (a)-[:knows*1..3]->(b:Product {name: 'phone'}) "
                  "RETURN a.name")
          .ValueOrDie();
  PlannedQuery planned = PlanQuery(g, view.stats(), q).ValueOrDie();
  for (const PlanStep& step : planned.plan.steps) {
    if (step.kind != PlanStep::Kind::kVarExpand) continue;
    // Any VarExpand present must drive from the pattern's `from` side.
    EXPECT_EQ(planned.plan.slot_names[step.from_slot], "a");
  }
}

// ---------------------------------------------------------------------------
// Normalizer unit tests

TEST(NormalizeCypher, LiteralsBecomeParams) {
  NormalizedQuery a =
      NormalizeCypher("MATCH (p:Person {name: 'alice'}) WHERE p.age > 30 "
                      "RETURN p.name LIMIT 5")
          .ValueOrDie();
  NormalizedQuery b =
      NormalizeCypher("MATCH (p:Person {name: 'bob'}) WHERE p.age > 99 "
                      "RETURN p.name LIMIT 2")
          .ValueOrDie();
  EXPECT_EQ(a.key, b.key);
  ASSERT_EQ(a.params.size(), 3u);
  EXPECT_EQ(std::get<std::string>(a.params[0]), "alice");
  EXPECT_EQ(std::get<int64_t>(a.params[1]), 30);
  EXPECT_EQ(std::get<int64_t>(a.params[2]), 5);
  EXPECT_EQ(std::get<std::string>(b.params[0]), "bob");
}

TEST(NormalizeCypher, HopBoundsStayInKey) {
  NormalizedQuery a =
      NormalizeCypher("MATCH (a)-[:k*1..2]->(b) RETURN b").ValueOrDie();
  NormalizedQuery b =
      NormalizeCypher("MATCH (a)-[:k*1..3]->(b) RETURN b").ValueOrDie();
  EXPECT_NE(a.key, b.key);
  EXPECT_TRUE(a.params.empty());
}

TEST(NormalizeCypher, BooleansParameterizedOnlyInLiteralPositions) {
  // Literal positions: property-map value, comparator operand.
  NormalizedQuery lit =
      NormalizeCypher("MATCH (p {active: true}) WHERE p.flag = false RETURN p")
          .ValueOrDie();
  ASSERT_EQ(lit.params.size(), 2u);
  EXPECT_EQ(std::get<bool>(lit.params[0]), true);
  EXPECT_EQ(std::get<bool>(lit.params[1]), false);
  // Identifier positions: `true` as a variable/label stays in the key.
  NormalizedQuery ident =
      NormalizeCypher("MATCH (true:Person) RETURN true").ValueOrDie();
  EXPECT_TRUE(ident.params.empty());
  EXPECT_NE(ident.key.find("true"), std::string::npos);
}

TEST(NormalizeCypher, IdentifiersAreCaseSensitiveKeywordsAreNot) {
  // Keyword case differences produce different keys (no folding — correct
  // over clever), so they simply cache as separate shapes.
  NormalizedQuery upper = NormalizeCypher("MATCH (n) RETURN n").ValueOrDie();
  NormalizedQuery lower = NormalizeCypher("match (n) return n").ValueOrDie();
  EXPECT_NE(upper.key, lower.key);
  // Variable case differences MUST key separately.
  NormalizedQuery var_upper = NormalizeCypher("MATCH (N) RETURN N").ValueOrDie();
  EXPECT_NE(upper.key, var_upper.key);
}

TEST(NormalizeCypher, WhitespaceInsensitive) {
  NormalizedQuery a =
      NormalizeCypher("MATCH (p:Person) RETURN p.name").ValueOrDie();
  NormalizedQuery b =
      NormalizeCypher("  MATCH   (p:Person)\n\tRETURN p.name  ").ValueOrDie();
  EXPECT_EQ(a.key, b.key);
}

// ---------------------------------------------------------------------------
// QueryEngine: plan cache, rebinding, invalidation

std::vector<std::string> Names(const QueryResult& r) {
  std::vector<std::string> out;
  for (const auto& row : r.rows) out.push_back(std::get<std::string>(row[0]));
  return out;
}

TEST(QueryEngine, CacheHitRebindsParameters) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  QueryResult r1 =
      engine
          .Run("MATCH (p:Person {name: 'alice'})-[:knows]->(q) RETURN q.name")
          .ValueOrDie();
  EXPECT_EQ(Names(r1), std::vector<std::string>{"bob"});
  EXPECT_EQ(engine.stats().cache_misses, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  // Same shape, different literal: must hit and return the OTHER answer.
  QueryResult r2 =
      engine.Run("MATCH (p:Person {name: 'bob'})-[:knows]->(q) RETURN q.name")
          .ValueOrDie();
  EXPECT_EQ(Names(r2), std::vector<std::string>{"carol"});
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.cache_size(), 1u);
}

TEST(QueryEngine, CacheHitDoesZeroParseAndPlanWork) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  engine.Run("MATCH (p:Person) WHERE p.age > 30 RETURN p.name LIMIT 2")
      .ValueOrDie();
  const int64_t parses = obs::CounterValue("query.plan.parses");
  const int64_t plans = obs::CounterValue("query.plan.plans");
  const int64_t hits = obs::CounterValue("query.plan.cache_hits");
  // Different literals, same shape: the hit path must not parse or plan.
  engine.Run("MATCH (p:Person) WHERE p.age > 28 RETURN p.name LIMIT 1")
      .ValueOrDie();
  EXPECT_EQ(obs::CounterValue("query.plan.parses"), parses);
  EXPECT_EQ(obs::CounterValue("query.plan.plans"), plans);
  EXPECT_EQ(obs::CounterValue("query.plan.cache_hits"), hits + 1);
}

TEST(QueryEngine, LimitRebindsThroughCache) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  QueryResult r1 =
      engine.Run("MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 1")
          .ValueOrDie();
  QueryResult r2 =
      engine.Run("MATCH (p:Person) RETURN p.name ORDER BY p.name LIMIT 3")
          .ValueOrDie();
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(r1.rows.size(), 1u);
  EXPECT_EQ(r2.rows.size(), 3u);
}

TEST(QueryEngine, MatchesOneShotExecutionOnCorpus) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  for (const char* text : kCorpus) {
    Result<QueryResult> direct = RunCypher(g, text);
    Result<QueryResult> cached = engine.Run(text);
    ASSERT_EQ(direct.ok(), cached.ok()) << text;
    if (!direct.ok()) continue;
    EXPECT_EQ(direct->rows, cached->rows) << text;
  }
  // Second pass: everything cacheable now hits, results unchanged.
  const uint64_t misses = engine.stats().cache_misses;
  for (const char* text : kCorpus) {
    Result<QueryResult> direct = RunCypher(g, text);
    Result<QueryResult> cached = engine.Run(text);
    ASSERT_EQ(direct.ok(), cached.ok()) << text;
    if (!direct.ok()) continue;
    EXPECT_EQ(direct->rows, cached->rows) << text;
  }
  EXPECT_EQ(engine.stats().cache_misses, misses);
  EXPECT_GT(engine.stats().cache_hits, 0u);
}

TEST(QueryEngine, AddEdgeInvalidatesStalePlan) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  const std::string q =
      "MATCH (a:Person {name: 'carol'})-[:knows]->(b) RETURN b.name";
  EXPECT_TRUE(engine.Run(q).ValueOrDie().rows.empty());
  // Mutate: carol now knows alice. A stale plan (or stale CSR view) would
  // keep returning zero rows.
  g.AddEdge(2, 0, "knows").ValueOrDie();
  EXPECT_EQ(Names(engine.Run(q).ValueOrDie()),
            std::vector<std::string>{"alice"});
  EXPECT_EQ(engine.stats().stats_rebuilds, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);  // cache was dropped
}

TEST(QueryEngine, SetPropertyInvalidatesStalePlan) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  const std::string q = "MATCH (p:Person) WHERE p.age > 40 RETURN p.name";
  EXPECT_EQ(Names(engine.Run(q).ValueOrDie()),
            std::vector<std::string>{"carol"});
  g.SetVertexProperty(1, "age", static_cast<int64_t>(50)).Abort();
  QueryResult r = engine.Run(q).ValueOrDie();
  EXPECT_EQ(Names(r), (std::vector<std::string>{"bob", "carol"}));
}

TEST(QueryEngine, NewLabelAfterCachedPlanIsPickedUp) {
  // A plan compiled while "Ghost" was unknown resolves the label to the
  // no-match sentinel. Once a Ghost vertex exists the old plan would be
  // wrong — invalidation must recompile, not rebind.
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  const std::string q = "MATCH (p:Ghost) RETURN count(*)";
  EXPECT_EQ(std::get<int64_t>(engine.Run(q).ValueOrDie().rows[0][0]), 0);
  g.AddVertex("Ghost");
  EXPECT_EQ(std::get<int64_t>(engine.Run(q).ValueOrDie().rows[0][0]), 1);
}

TEST(QueryEngine, NewEdgeTypeAfterCachedPlanIsPickedUp) {
  // The edge-type twin of the label case: the view must grow rows for a
  // type interned after it was built, and the engine must re-plan.
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  const std::string q = "MATCH (a:Person)-[:likes]->(b) RETURN a.name, b.name";
  EXPECT_TRUE(engine.Run(q).ValueOrDie().rows.empty());
  g.AddEdge(0, 4, "likes").ValueOrDie();
  QueryResult r = engine.Run(q).ValueOrDie();
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(std::get<std::string>(r.rows[0][0]), "alice");
  EXPECT_EQ(std::get<std::string>(r.rows[0][1]), "phone");
  EXPECT_EQ(engine.stats().cache_hits, 0u);
}

TEST(QueryEngine, InterpreterModePassesThrough) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g, {.vectorized = false});
  QueryResult r =
      engine.Run("MATCH (p:Person) RETURN p.name ORDER BY p.name").ValueOrDie();
  EXPECT_EQ(Names(r), (std::vector<std::string>{"alice", "bob", "carol"}));
  // No caching in interpreter mode.
  engine.Run("MATCH (p:Person) RETURN p.name ORDER BY p.name").ValueOrDie();
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.cache_size(), 0u);
}

TEST(QueryEngine, ErrorsMatchRunCypher) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  for (const char* text :
       {"MATCH", "MATCH (p RETURN p", "MATCH (p) RETURN q",
        "MATCH (p) WHERE z.x > 1 RETURN p", "RETURN 1", ""}) {
    Result<QueryResult> direct = RunCypher(g, text);
    Result<QueryResult> cached = engine.Run(text);
    ASSERT_FALSE(direct.ok()) << text;
    ASSERT_FALSE(cached.ok()) << text;
    EXPECT_EQ(direct.status().message(), cached.status().message()) << text;
  }
}

TEST(QueryEngine, CacheIsBounded) {
  PropertyGraph g = SampleGraph();
  QueryEngine engine(g);
  for (size_t i = 0; i < QueryEngine::kMaxCachedPlans + 10; ++i) {
    // Distinct shapes: variable names stay in the key.
    std::string q =
        "MATCH (v" + std::to_string(i) + ":Person) RETURN count(*)";
    ASSERT_TRUE(engine.Run(q).ok()) << q;
  }
  EXPECT_LE(engine.cache_size(), QueryEngine::kMaxCachedPlans);
}

// ---------------------------------------------------------------------------
// LabelCsrView statistics

TEST(LabelCsr, StatsCountLabelsAndDegrees) {
  PropertyGraph g = SampleGraph();
  LabelCsrView view = LabelCsrView::Build(g);
  const LabelCsrView::Stats& s = view.stats();
  auto person = g.labels().Lookup("Person");
  auto product = g.labels().Lookup("Product");
  auto knows = g.labels().Lookup("knows");
  ASSERT_TRUE(person && product && knows);
  EXPECT_EQ(s.LabelCount(*person), 3u);
  EXPECT_EQ(s.LabelCount(*product), 2u);
  EXPECT_EQ(s.LabelCount(LabelCsrView::kAnyLabel), 5u);
  // alice->bob, bob->carol: 2 knows arcs leaving 3 Persons.
  EXPECT_NEAR(s.AvgDegree(*person, *knows, /*out=*/true), 2.0 / 3.0, 1e-9);
  EXPECT_EQ(s.AvgDegree(*product, *knows, /*out=*/true), 0.0);
  EXPECT_EQ(s.LabelCount(kNoSuchId), 0u);
}

TEST(LabelCsr, ParallelEdgesDeduplicated) {
  PropertyGraph g;
  VertexId a = g.AddVertex("A");
  VertexId b = g.AddVertex("A");
  g.AddEdge(a, b, "e").ValueOrDie();
  g.AddEdge(a, b, "e").ValueOrDie();  // parallel duplicate
  g.AddEdge(a, b, "e").ValueOrDie();
  LabelCsrView view = LabelCsrView::Build(g);
  auto e = g.labels().Lookup("e");
  ASSERT_TRUE(e);
  EXPECT_EQ(view.OutNeighbors(a, *e).size(), 1u);
  EXPECT_EQ(view.InNeighbors(b, *e).size(), 1u);
  // Distinct neighbor tuples, so the homomorphism count is 1 either way.
  QueryResult r = RunCypher(g, "MATCH (x)-[:e]->(y) RETURN count(*)",
                            {.vectorized = true})
                      .ValueOrDie();
  QueryResult ri = RunCypher(g, "MATCH (x)-[:e]->(y) RETURN count(*)",
                             {.vectorized = false})
                       .ValueOrDie();
  EXPECT_EQ(r.rows, ri.rows);
}

// ---------------------------------------------------------------------------
// LabelCsrView catch-up: after every mutation a caught-up view must equal a
// fresh Build. At checkpoints the fresh Build must also equal rows and
// statistics computed straight from the PropertyGraph's edge records, which
// catches a defect that Build shares with the catch-up.

using Arc = std::pair<VertexId, VertexId>;

void ExpectSameStats(const LabelCsrView::Stats& got,
                     const LabelCsrView::Stats& want) {
  EXPECT_EQ(got.num_vertices, want.num_vertices);
  EXPECT_EQ(got.label_counts, want.label_counts);
  EXPECT_EQ(got.out_arcs_by_type_label, want.out_arcs_by_type_label);
  EXPECT_EQ(got.in_arcs_by_type_label, want.in_arcs_by_type_label);
  EXPECT_EQ(got.arcs_by_type, want.arcs_by_type);
  EXPECT_EQ(got.out_arcs_by_label, want.out_arcs_by_label);
  EXPECT_EQ(got.in_arcs_by_label, want.in_arcs_by_label);
  EXPECT_EQ(got.total_arcs, want.total_arcs);
}

bool SameRow(std::span<const VertexId> a, std::span<const VertexId> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

void ExpectSameView(const PropertyGraph& g, const LabelCsrView& got,
                    const LabelCsrView& want) {
  ASSERT_EQ(got.num_vertices(), want.num_vertices());
  EXPECT_EQ(got.built_version(), want.built_version());
  const uint32_t dict = static_cast<uint32_t>(g.labels().size());
  for (uint32_t i = 0; i <= dict; ++i) {  // every dictionary id, then kAnyType
    const uint32_t t = i == dict ? LabelCsrView::kAnyType : i;
    for (VertexId v = 0; v < want.num_vertices(); ++v) {
      ASSERT_TRUE(SameRow(got.OutNeighbors(v, t), want.OutNeighbors(v, t)))
          << "out row " << v << " of type " << t;
      ASSERT_TRUE(SameRow(got.InNeighbors(v, t), want.InNeighbors(v, t)))
          << "in row " << v << " of type " << t;
    }
  }
  for (uint32_t l = 0; l < dict; ++l) {
    EXPECT_EQ(got.VerticesWithLabel(l), want.VerticesWithLabel(l)) << "label " << l;
  }
  ExpectSameStats(got.stats(), want.stats());
}

// Checks `view` against a brute-force oracle over the graph's edge records:
// the distinct arcs of each type and of all types, the label lists, and the
// statistics they imply.
void ExpectMatchesGraph(const PropertyGraph& g, const LabelCsrView& view) {
  const size_t dict = g.labels().size();
  const VertexId n = g.num_vertices();
  ASSERT_EQ(view.num_vertices(), n);
  EXPECT_EQ(view.built_version(), g.version());
  std::vector<std::vector<Arc>> arcs(dict + 1);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const Arc arc{g.EdgeSrc(e), g.EdgeDst(e)};
    arcs[g.EdgeTypeId(e)].push_back(arc);
    arcs[dict].push_back(arc);
  }
  LabelCsrView::Stats want;
  want.num_vertices = n;
  want.label_counts.assign(dict, 0);
  for (VertexId v = 0; v < n; ++v) ++want.label_counts[g.VertexLabelId(v)];
  want.out_arcs_by_type_label.assign(dict, std::vector<uint64_t>(dict, 0));
  want.in_arcs_by_type_label.assign(dict, std::vector<uint64_t>(dict, 0));
  want.arcs_by_type.assign(dict, 0);
  want.out_arcs_by_label.assign(dict, 0);
  want.in_arcs_by_label.assign(dict, 0);
  for (size_t t = 0; t <= dict; ++t) {
    std::vector<Arc>& list = arcs[t];
    std::sort(list.begin(), list.end());
    list.erase(std::unique(list.begin(), list.end()), list.end());
    const uint32_t type = t == dict ? LabelCsrView::kAnyType : static_cast<uint32_t>(t);
    std::vector<Arc> reversed;
    for (const auto& [src, dst] : list) {
      reversed.emplace_back(dst, src);
      const uint32_t src_label = g.VertexLabelId(src);
      const uint32_t dst_label = g.VertexLabelId(dst);
      if (t == dict) {
        ++want.out_arcs_by_label[src_label];
        ++want.in_arcs_by_label[dst_label];
      } else {
        ++want.out_arcs_by_type_label[t][src_label];
        ++want.in_arcs_by_type_label[t][dst_label];
        ++want.arcs_by_type[t];
      }
    }
    std::sort(reversed.begin(), reversed.end());
    // Both lists are grouped by their first member: walk them row by row.
    for (const bool out : {true, false}) {
      const std::vector<Arc>& rows = out ? list : reversed;
      size_t i = 0;
      for (VertexId v = 0; v < n; ++v) {
        std::vector<VertexId> row;
        for (; i < rows.size() && rows[i].first == v; ++i) row.push_back(rows[i].second);
        ASSERT_TRUE(SameRow(out ? view.OutNeighbors(v, type) : view.InNeighbors(v, type),
                            row))
            << (out ? "out" : "in") << " row " << v << " of type " << type;
      }
    }
  }
  want.total_arcs = arcs[dict].size();
  ExpectSameStats(view.stats(), want);
  for (uint32_t l = 0; l < dict; ++l) {
    std::vector<VertexId> members;
    for (VertexId v = 0; v < n; ++v) {
      if (g.VertexLabelId(v) == l) members.push_back(v);
    }
    EXPECT_EQ(view.VerticesWithLabel(l), members) << "label " << l;
  }
}

// Applies one seeded mutation. The mix covers every case the catch-up must
// handle: known and new labels, known and new types (including a label name
// reused as a type), parallel duplicates, self-loops, arcs into the vertex
// just added, and property writes that move the version without appending.
void Mutate(PropertyGraph* g, Rng* rng, int step) {
  const VertexId n = g->num_vertices();
  const auto any_vertex = [&] { return static_cast<VertexId>(rng->NextBounded(n)); };
  const char* const kLabels[] = {"A", "B", "C"};
  const char* const kTypes[] = {"x", "y", "A"};
  const uint64_t roll = rng->NextBounded(100);
  if (roll < 10) {
    g->AddVertex(kLabels[rng->NextBounded(3)]);
  } else if (roll < 11) {
    g->AddVertex("L" + std::to_string(step));
  } else if (roll < 45) {
    g->AddEdge(any_vertex(), any_vertex(), kTypes[rng->NextBounded(3)]).ValueOrDie();
  } else if (roll < 46) {
    g->AddEdge(any_vertex(), any_vertex(), "T" + std::to_string(step)).ValueOrDie();
  } else if (roll < 55 && g->num_edges() > 0) {
    const EdgeId e = rng->NextBounded(g->num_edges());
    g->AddEdge(g->EdgeSrc(e), g->EdgeDst(e), g->EdgeType(e)).ValueOrDie();
  } else if (roll < 60) {
    const VertexId v = any_vertex();
    g->AddEdge(v, v, kTypes[rng->NextBounded(2)]).ValueOrDie();
  } else if (roll < 68) {
    const VertexId newest = n - 1;
    if (rng->NextBool()) {
      g->AddEdge(any_vertex(), newest, kTypes[rng->NextBounded(3)]).ValueOrDie();
    } else {
      g->AddEdge(newest, any_vertex(), "x").ValueOrDie();
    }
  } else if (roll < 90 || g->num_edges() == 0) {
    g->SetVertexProperty(any_vertex(), "w",
                         static_cast<int64_t>(rng->NextBounded(20)))
        .Abort();
  } else {
    g->SetEdgeProperty(rng->NextBounded(g->num_edges()), "since",
                       static_cast<int64_t>(step))
        .Abort();
  }
}

TEST(LabelCsrViewCatchUpTest, MatchesFreshBuildAfterEveryMutation) {
  constexpr int kMutations = 2000;
  constexpr int kLazyEvery = 50;
  // Queries the lazily caught-up engine answers at each checkpoint; "late"
  // is a type that appears only mid-run, so its cached plan starts out on
  // the no-match sentinel.
  const char* const kQueries[] = {
      "MATCH (a:A {w: 3})-[:x]->(b)-[:y]->(c) RETURN b.w, c.w",
      "MATCH (p:B) WHERE p.w > 9 RETURN p.w",
      "MATCH (a:C)-[]-(b:A) RETURN a.w, b.w",
      "MATCH (a)-[:late]->(b) RETURN a.w, b.w",
  };
  Rng rng(2024);
  PropertyGraph g;
  for (int i = 0; i < 24; ++i) {
    const VertexId v = g.AddVertex(i % 3 == 0 ? "A" : i % 3 == 1 ? "B" : "C");
    g.SetVertexProperty(v, "w", static_cast<int64_t>(i % 20)).Abort();
  }
  for (int i = 0; i < 48; ++i) {
    g.AddEdge(static_cast<VertexId>(rng.NextBounded(24)),
              static_cast<VertexId>(rng.NextBounded(24)), i % 2 == 0 ? "x" : "y")
        .ValueOrDie();
  }
  QueryEngine eager(g);
  QueryEngine lazy(g);
  eager.view();
  for (const char* text : kQueries) ASSERT_TRUE(lazy.Run(text).ok()) << text;

  for (int step = 1; step <= kMutations; ++step) {
    SCOPED_TRACE("mutation " + std::to_string(step));
    Mutate(&g, &rng, step);
    if (step % 500 == 250) {
      g.AddEdge(static_cast<VertexId>(rng.NextBounded(g.num_vertices())),
                g.num_vertices() - 1, "late")
          .ValueOrDie();
    }
    // The eager engine catches up after every mutation.
    const LabelCsrView fresh = LabelCsrView::Build(g);
    ExpectSameView(g, eager.view(), fresh);
    if (HasFailure()) return;  // report the first mutation that diverged
    if (step % kLazyEvery != 0 && step != kMutations) continue;

    // Checkpoint: the lazy engine absorbs ~50 mutations at once.
    ExpectMatchesGraph(g, fresh);
    ExpectSameView(g, lazy.view(), fresh);
    if (HasFailure()) return;
    for (const char* text : kQueries) {
      const QueryResult got = lazy.Run(text).ValueOrDie();
      const QueryResult want =
          ExecuteCypherInterpreted(g, ParseCypher(text).ValueOrDie()).ValueOrDie();
      EXPECT_EQ(got.columns, want.columns) << text;
      ASSERT_EQ(got.rows, want.rows) << text;
    }
  }
  const auto late = g.labels().Lookup("late");
  ASSERT_TRUE(late.has_value());
  EXPECT_GT(lazy.view().stats().arcs_by_type[*late], 0u);
  EXPECT_EQ(eager.stats().stats_rebuilds, static_cast<uint64_t>(kMutations) + 1);
}

TEST(LabelCsrViewCatchUpTest, ArcsMergedCountsNewEdges) {
  PropertyGraph g = SampleGraph();
  const int64_t before = obs::CounterValue("query.view.arcs_merged");
  LabelCsrView view = LabelCsrView::Build(g);
  EXPECT_EQ(obs::CounterValue("query.view.arcs_merged") - before,
            static_cast<int64_t>(g.num_edges()));
  g.AddEdge(0, 2, "knows").ValueOrDie();
  g.AddEdge(0, 2, "knows").ValueOrDie();  // a parallel edge still counts
  g.SetVertexProperty(0, "age", static_cast<int64_t>(35)).Abort();
  view.CatchUp(g);
  EXPECT_EQ(obs::CounterValue("query.view.arcs_merged") - before,
            static_cast<int64_t>(g.num_edges()));
  EXPECT_EQ(view.built_version(), g.version());
  ExpectMatchesGraph(g, view);
}

}  // namespace
}  // namespace ubigraph::query
