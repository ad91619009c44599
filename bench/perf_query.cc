// Query engine benchmarks: Cypher-lite (interpreter vs vectorized vs warm
// plan cache), the fluent traversal API, and the triple store (the survey's
// #3 challenge area). The Arg(12) social-graph variants feed the
// ci/perf_smoke.sh regression gate; the headline comparison is the anchored
// two-hop expand, where the vectorized engine's statistics-driven join order
// replaces the interpreter's scan-all-vertices-per-level backtracking.
#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "common/random.h"
#include "graph/label_csr.h"
#include "query/cypher_executor.h"
#include "query/cypher_parser.h"
#include "query/plan_cache.h"
#include "query/planner.h"
#include "query/traversal_api.h"
#include "rdf/triple_store.h"

#include "perf_common.h"
#include "perf_obs.h"

namespace ubigraph {
namespace {

// 2^scale Person vertices (age, name properties), 2^scale/10 Products,
// 4 "knows" + 2 "bought" edges per person. Cached per scale.
const PropertyGraph& SocialGraph(uint32_t scale) {
  static std::map<uint32_t, PropertyGraph*> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    auto* g = new PropertyGraph();
    Rng rng(13);
    const VertexId people = static_cast<VertexId>(1u) << scale;
    const VertexId products = people / 10;
    for (VertexId i = 0; i < people; ++i) {
      VertexId v = g->AddVertex("Person");
      g->SetVertexProperty(v, "age",
                           static_cast<int64_t>(18 + rng.NextBounded(60)))
          .Abort();
      g->SetVertexProperty(v, "name", "p" + std::to_string(i)).Abort();
    }
    for (VertexId i = 0; i < products; ++i) {
      VertexId v = g->AddVertex("Product");
      g->SetVertexProperty(v, "price", 10.0 + rng.NextDouble() * 990).Abort();
    }
    for (VertexId i = 0; i < people * 4; ++i) {
      VertexId a = static_cast<VertexId>(rng.NextBounded(people));
      VertexId b = static_cast<VertexId>(rng.NextBounded(people));
      if (a != b) g->AddEdge(a, b, "knows").ValueOrDie();
    }
    for (VertexId i = 0; i < people * 2; ++i) {
      VertexId a = static_cast<VertexId>(rng.NextBounded(people));
      VertexId b = people + static_cast<VertexId>(rng.NextBounded(products));
      g->AddEdge(a, b, "bought").ValueOrDie();
    }
    it = cache.emplace(scale, g).first;
  }
  return *it->second;
}

// A warm QueryEngine per (graph scale, batch size): the plan-cache-hit
// configuration.
query::QueryEngine& WarmEngine(uint32_t scale, size_t batch) {
  static std::map<std::pair<uint32_t, size_t>, query::QueryEngine*> cache;
  auto key = std::make_pair(scale, batch);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache
             .emplace(key, new query::QueryEngine(
                               SocialGraph(scale),
                               {.vectorized = true, .batch_size = batch}))
             .first;
  }
  return *it->second;
}

const char* kTwoHop =
    "MATCH (a:Person {name: 'p7'})-[:knows]->(b:Person)-[:knows]->(c:Person) "
    "RETURN count(*)";
const char* kLabelScan = "MATCH (p:Person) WHERE p.age > 70 RETURN p.name";

void BM_CypherParseOnly(benchmark::State& state) {
  const std::string q =
      "MATCH (a:Person)-[:knows]->(b:Person) WHERE a.age > 30 "
      "RETURN a.name, b.name LIMIT 50";
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::ParseCypher(q));
  }
  state.SetLabel("kernel=cypher mode=parse graph=none");
}
BENCHMARK(BM_CypherParseOnly);

// The plan-cache key derivation: the entire per-query cost of a cache hit
// besides execution itself.
void BM_CypherNormalizeOnly(benchmark::State& state) {
  const std::string q(kTwoHop);
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::NormalizeCypher(q));
  }
  state.SetLabel("kernel=cypher mode=normalize graph=none");
}
BENCHMARK(BM_CypherNormalizeOnly);

// --- label scan: interpreter vs warm vectorized engine ---------------------

void BM_CypherLabelScanInterp(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const PropertyGraph& g = SocialGraph(scale);
  bench::WorkProbe work({"cypher.rows_scanned"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        query::RunCypher(g, kLabelScan, {.vectorized = false}));
  }
  work.Flush(state);
  state.SetLabel("kernel=cypher mode=interp graph=social" +
                 std::to_string(scale));
}
BENCHMARK(BM_CypherLabelScanInterp)->Args({12, 0});

void BM_CypherLabelScanCached(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  query::QueryEngine& engine =
      WarmEngine(scale, static_cast<size_t>(state.range(1)));
  engine.Run(kLabelScan).ValueOrDie();
  bench::WorkProbe work({"cypher.rows_scanned"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(kLabelScan));
  }
  work.Flush(state);
  state.SetLabel("kernel=cypher mode=cached graph=social" +
                 std::to_string(scale));
}
BENCHMARK(BM_CypherLabelScanCached)->Args({12, 1024});

// --- anchored two-hop expand: the headline comparison ----------------------
// The interpreter scans every vertex at every pattern depth; the vectorized
// engine scans Person once for the anchor, then expands ~4 then ~16
// neighbors off the CSR view. Acceptance: >= 3x wall-clock win.

void BM_CypherTwoHopInterp(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const PropertyGraph& g = SocialGraph(scale);
  bench::WorkProbe work({"cypher.rows_scanned"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        query::RunCypher(g, kTwoHop, {.vectorized = false}));
  }
  work.Flush(state);
  state.SetLabel("kernel=cypher mode=interp graph=social" +
                 std::to_string(scale));
}
BENCHMARK(BM_CypherTwoHopInterp)->Args({12, 0});

// One-shot vectorized: parse + plan + a full CSR-view build every iteration
// (the cost RunCypher pays without an engine).
void BM_CypherTwoHopVectorized(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const PropertyGraph& g = SocialGraph(scale);
  bench::WorkProbe work({"cypher.rows_scanned"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        query::RunCypher(
            g, kTwoHop,
            {.vectorized = true,
             .batch_size = static_cast<size_t>(state.range(1))}));
  }
  work.Flush(state);
  state.SetLabel("kernel=cypher mode=vectorized graph=social" +
                 std::to_string(scale));
}
BENCHMARK(BM_CypherTwoHopVectorized)->Args({12, 1024});

void BM_CypherTwoHopCached(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  query::QueryEngine& engine =
      WarmEngine(scale, static_cast<size_t>(state.range(1)));
  engine.Run(kTwoHop).ValueOrDie();
  bench::WorkProbe work({"cypher.rows_scanned"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Run(kTwoHop));
  }
  work.Flush(state);
  state.SetLabel("kernel=cypher mode=cached graph=social" +
                 std::to_string(scale));
}
BENCHMARK(BM_CypherTwoHopCached)->Args({12, 1024})->Args({12, 1});

// Serving with writes: each iteration adds one "knows" edge, then runs the
// anchored two-hop read through a warm engine, which catches its CSR view
// up (one linear merge of the new arc) and re-plans. The graph is this
// row's own copy, so the edges it adds never reach the rows that share
// SocialGraph(scale).
void BM_CypherWriteThenTwoHop(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  PropertyGraph g = SocialGraph(scale);
  query::QueryEngine engine(
      g, {.vectorized = true, .batch_size = static_cast<size_t>(state.range(1))});
  engine.Run(kTwoHop).ValueOrDie();
  const VertexId people = static_cast<VertexId>(1u) << scale;
  Rng rng(29);
  bench::WorkProbe work({"cypher.rows_scanned", "query.view.arcs_merged"});
  for (auto _ : state) {
    const VertexId a = static_cast<VertexId>(rng.NextBounded(people));
    const VertexId b = static_cast<VertexId>(rng.NextBounded(people));
    g.AddEdge(a, b, "knows").ValueOrDie();
    benchmark::DoNotOptimize(engine.Run(kTwoHop));
  }
  work.Flush(state);
  state.SetLabel("kernel=cypher mode=write_then_cached graph=social" +
                 std::to_string(scale));
}
BENCHMARK(BM_CypherWriteThenTwoHop)->Args({12, 1024});

// Cold planning cost in isolation: normalize + parse + plan (no execution,
// no view build — the one-off work a cache hit skips).
void BM_CypherPlanOnly(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  query::QueryEngine& engine = WarmEngine(scale, 1024);
  const LabelCsrView& view = engine.view();
  const PropertyGraph& g = SocialGraph(scale);
  query::CypherQuery q = query::ParseCypher(kTwoHop).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(query::PlanQuery(g, view.stats(), q));
  }
  bench::SetWorkItems(state, 1.0);
  state.SetLabel("kernel=cypher mode=plan graph=social" +
                 std::to_string(scale));
}
BENCHMARK(BM_CypherPlanOnly)->Args({12, 0});

// --- fluent traversal API / triple store (unchanged workloads) -------------

void BM_TraversalApiTwoHop(benchmark::State& state) {
  const PropertyGraph& g = SocialGraph(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        query::GraphTraversal(g).V({7}).Out("knows").Out("knows").Dedup().Count());
  }
  state.SetLabel("kernel=traversal mode=twohop graph=social11");
}
BENCHMARK(BM_TraversalApiTwoHop);

void BM_TraversalApiFilterChain(benchmark::State& state) {
  const PropertyGraph& g = SocialGraph(11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        query::GraphTraversal(g)
            .V()
            .HasLabel("Person")
            .Has("age",
                 [](const PropertyValue& v) { return std::get<int64_t>(v) > 50; })
            .Out("bought")
            .Dedup()
            .Count());
  }
  state.SetLabel("kernel=traversal mode=filter graph=social11");
}
BENCHMARK(BM_TraversalApiFilterChain);

void BM_TripleStoreJoin(benchmark::State& state) {
  static rdf::TripleStore* store = [] {
    auto* s = new rdf::TripleStore();
    Rng rng(17);
    for (int i = 0; i < 20000; ++i) {
      s->Add("person" + std::to_string(rng.NextBounded(2000)), "knows",
             "person" + std::to_string(rng.NextBounded(2000)));
    }
    return s;
  }();
  for (auto _ : state) {
    std::vector<std::string> vars;
    benchmark::DoNotOptimize(store->Query(
        {{"person1", "knows", "?x"}, {"?x", "knows", "?y"}}, &vars));
  }
  state.SetLabel("kernel=rdf mode=join graph=triples20k");
}
BENCHMARK(BM_TripleStoreJoin);

}  // namespace
}  // namespace ubigraph

UBIGRAPH_BENCHMARK_MAIN_WITH_OBS()
