// Shared graph builders for the perf benchmarks, plus the BENCH.json
// reporter every perf_* binary emits its results through.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <cmath>
#include <initializer_list>

#include "common/random.h"
#include "gen/generators.h"
#include "graph/csr_graph.h"
#include "obs/metrics.h"

namespace ubigraph::bench {

/// Cached RMAT graph at 2^scale vertices with 8 edges per vertex.
inline const CsrGraph& RmatGraph(uint32_t scale, bool in_edges = false) {
  static std::map<std::pair<uint32_t, bool>, CsrGraph> cache;
  auto key = std::make_pair(scale, in_edges);
  auto it = cache.find(key);
  if (it == cache.end()) {
    Rng rng(scale * 1000003ULL + 17);
    uint64_t edges = static_cast<uint64_t>(8) << scale;
    CsrOptions opts;
    opts.build_in_edges = in_edges;
    it = cache.emplace(key, CsrGraph::FromEdges(
                                gen::Rmat(scale, edges, &rng).ValueOrDie(), opts)
                                .ValueOrDie())
             .first;
  }
  return it->second;
}

/// Cached weighted RMAT graph (same shape as RmatGraph, uniform weights in
/// [0.1, 1.1)) for the SSSP benches: the spread puts distances in many
/// delta-stepping buckets without degenerating into unit-weight BFS.
inline const CsrGraph& WeightedRmatGraph(uint32_t scale) {
  static std::map<uint32_t, CsrGraph> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    Rng rng(scale * 1000003ULL + 29);
    uint64_t edges = static_cast<uint64_t>(8) << scale;
    EdgeList el = gen::Rmat(scale, edges, &rng).ValueOrDie();
    for (Edge& e : el.mutable_edges()) e.weight = 0.1 + rng.NextDouble();
    it = cache.emplace(scale, CsrGraph::FromEdges(el).ValueOrDie()).first;
  }
  return it->second;
}

/// Cached undirected small-world graph (for layout / community benches).
inline const CsrGraph& SmallWorldGraph(VertexId n) {
  static std::map<VertexId, CsrGraph> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    Rng rng(n + 5);
    CsrOptions opts;
    opts.directed = false;
    it = cache.emplace(n, CsrGraph::FromEdges(
                              gen::WattsStrogatz(n, 6, 0.1, &rng).ValueOrDie(),
                              opts)
                              .ValueOrDie())
             .first;
  }
  return it->second;
}

/// Road-like corpus graph: a 2^(scale/2) x 2^(scale-scale/2) lattice
/// (2^scale vertices) with omitted segments and sparse diagonals — the
/// bounded-degree/huge-diameter shape the RMAT-only suite never exercised
/// ("SoK: The Faults in our Graph Benchmarks"). Undirected. With `weighted`,
/// every edge then draws 0.1 + U[0,1) from the same generator, as the
/// traverse_road benchmark does (scale 18 is its 512 x 512 lattice).
inline CsrGraph BuildRoadGraph(uint32_t scale, bool weighted) {
  Rng rng(scale * 1000003ULL + 41);
  VertexId rows = static_cast<VertexId>(1u) << (scale / 2);
  VertexId cols = static_cast<VertexId>(1u) << (scale - scale / 2);
  EdgeList el = gen::RoadLike(rows, cols, {}, &rng).ValueOrDie();
  if (weighted) {
    for (Edge& e : el.mutable_edges()) e.weight = 0.1 + rng.NextDouble();
  }
  CsrOptions opts;
  opts.directed = false;
  return CsrGraph::FromEdges(std::move(el), opts).ValueOrDie();
}

/// Cached unweighted road lattice (BuildRoadGraph).
inline const CsrGraph& RoadGraph(uint32_t scale) {
  static std::map<uint32_t, CsrGraph> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    it = cache.emplace(scale, BuildRoadGraph(scale, /*weighted=*/false)).first;
  }
  return it->second;
}

/// Cached weighted road lattice (BuildRoadGraph) for the SSSP benches.
inline const CsrGraph& WeightedRoadGraph(uint32_t scale) {
  static std::map<uint32_t, CsrGraph> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    it = cache.emplace(scale, BuildRoadGraph(scale, /*weighted=*/true)).first;
  }
  return it->second;
}

/// Cached LFR-style skewed-community corpus graph (2^scale vertices,
/// power-law degrees and community sizes, mu = 0.1). Undirected.
inline const CsrGraph& LfrCommunityGraph(uint32_t scale) {
  static std::map<uint32_t, CsrGraph> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    Rng rng(scale * 1000003ULL + 53);
    VertexId n = static_cast<VertexId>(1u) << scale;
    CsrOptions opts;
    opts.directed = false;
    it = cache.emplace(
                  scale,
                  CsrGraph::FromEdges(
                      gen::LfrCommunity(n, {}, &rng).ValueOrDie().edges, opts)
                      .ValueOrDie())
             .first;
  }
  return it->second;
}

/// Samples a set of obs work counters around a timed loop so the benchmark
/// can report machine-independent work (edges relaxed/scanned, frontier
/// activations) alongside wall-clock. Construct before the `for (auto _ :
/// state)` loop, call Flush(state) after it; the delta is divided by the
/// iteration count, so BENCH.json carries work *per kernel run*.
class WorkProbe {
 public:
  WorkProbe(std::initializer_list<const char*> counter_names)
      : names_(counter_names.begin(), counter_names.end()), start_(Sum()) {}

  void Flush(benchmark::State& state) const {
    state.counters["work_items"] = benchmark::Counter(
        static_cast<double>(Sum() - start_), benchmark::Counter::kAvgIterations);
  }

 private:
  int64_t Sum() const {
    int64_t total = 0;
    for (const char* name : names_) total += obs::CounterValue(name);
    return total;
  }

  std::vector<const char*> names_;
  int64_t start_;
};

/// For benchmarks whose work is a fixed function of the input (CSR builds,
/// permutes, encodes: every iteration touches exactly `per_iteration` items).
inline void SetWorkItems(benchmark::State& state, double per_iteration) {
  state.counters["work_items"] = benchmark::Counter(per_iteration);
}

/// BFS root that actually exercises the kernel: the max-out-degree vertex
/// (RMAT ids are scrambled, so a fixed id like 0 is usually a sink that
/// reaches nothing and turns the benchmark into a no-op).
inline VertexId BfsRoot(const CsrGraph& g) {
  VertexId best = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.OutDegree(v) > g.OutDegree(best)) best = v;
  }
  return best;
}

/// Console reporter that additionally collects every iteration run and can
/// write the unified machine-readable BENCH.json: one record per benchmark
/// with {name, kernel, mode, graph, threads, median real ns/iter, edges/sec}.
/// Benchmarks annotate themselves with `state.SetLabel("kernel=bfs mode=hybrid
/// graph=rmat20")` and `state.counters["threads"] = t`; unannotated fields
/// fall back to the benchmark name / 1 thread.
class BenchJsonReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    benchmark::ConsoleReporter::ReportRuns(reports);
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      Sample s;
      s.name = run.benchmark_name();
      s.label = run.report_label;
      const double iters = run.iterations > 0
                               ? static_cast<double>(run.iterations)
                               : 1.0;
      s.real_ns = run.real_accumulated_time / iters * 1e9;
      auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        // google benchmark divides kIsRate counters by the *timed thread's*
        // CPU time. In a multi-threaded kernel that thread runs its own
        // share of each fork, then spins and finally parks until the rest
        // of the team is done, so its CPU time is some unstable fraction of
        // the wall time. Scaling by cpu/real turns the rate back into items
        // per real second, the physical throughput, whatever that fraction.
        const double cpu_over_real =
            run.real_accumulated_time > 0.0
                ? run.cpu_accumulated_time / run.real_accumulated_time
                : 1.0;
        s.edges_per_second = items->second.value * cpu_over_real;
      }
      auto bpe = run.counters.find("bytes_per_edge");
      if (bpe != run.counters.end()) s.bytes_per_edge = bpe->second.value;
      auto wi = run.counters.find("work_items");
      if (wi != run.counters.end()) s.work_items = wi->second.value;
      auto psb = run.counters.find("peak_segment_bytes");
      if (psb != run.counters.end()) s.peak_segment_bytes = psb->second.value;
      auto rss = run.counters.find("peak_rss_bytes");
      if (rss != run.counters.end()) s.peak_rss_bytes = rss->second.value;
      auto threads = run.counters.find("threads");
      if (threads != run.counters.end()) {
        s.threads = static_cast<int64_t>(threads->second.value);
      }
      samples_.push_back(std::move(s));
    }
  }

  /// Writes the collected runs as a JSON array: one record per benchmark
  /// name with the median over its repetitions, the repetition count used,
  /// and the relative spread (max-min)/median of the timing samples. When a
  /// benchmark ran more than twice, the first repetition is discarded as
  /// warmup (cold caches / pool spin-up) before aggregating — the variance
  /// policy ci/perf_smoke.sh's regression gate builds on. Returns false on
  /// I/O failure.
  bool WriteJson(const std::string& path) const {
    // Group in first-appearance order so the file is stable across runs.
    std::vector<std::string> order;
    std::map<std::string, std::vector<const Sample*>> groups;
    for (const Sample& s : samples_) {
      auto [it, inserted] = groups.try_emplace(s.name);
      if (inserted) order.push_back(s.name);
      it->second.push_back(&s);
    }
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    bool first = true;
    for (const std::string& name : order) {
      const auto& runs = groups[name];
      // Warmup discard: the first repetition pays one-off costs the steady
      // state doesn't; drop it whenever enough repetitions remain to still
      // take a median.
      const size_t begin = runs.size() > 2 ? 1 : 0;
      std::vector<double> ns, eps, bpe, wi, psb, rss;
      for (size_t i = begin; i < runs.size(); ++i) {
        ns.push_back(runs[i]->real_ns);
        eps.push_back(runs[i]->edges_per_second);
        bpe.push_back(runs[i]->bytes_per_edge);
        wi.push_back(runs[i]->work_items);
        psb.push_back(runs[i]->peak_segment_bytes);
        rss.push_back(runs[i]->peak_rss_bytes);
      }
      const double med_ns = Median(ns);
      double spread = 0.0;
      if (ns.size() > 1 && med_ns > 0.0) {
        auto [mn, mx] = std::minmax_element(ns.begin(), ns.end());
        spread = (*mx - *mn) / med_ns;
      }
      const Sample* rep = runs.front();
      std::string kernel = LabelField(rep->label, "kernel");
      if (kernel.empty()) kernel = name.substr(0, name.find('/'));
      if (!first) out << ",\n";
      first = false;
      out << "  {\"name\": \"" << JsonEscape(name) << "\""
          << ", \"kernel\": \"" << JsonEscape(kernel) << "\""
          << ", \"mode\": \"" << JsonEscape(LabelField(rep->label, "mode"))
          << "\""
          << ", \"graph\": \"" << JsonEscape(LabelField(rep->label, "graph"))
          << "\""
          << ", \"threads\": " << rep->threads
          << ", \"median_real_ns\": " << Finite(med_ns)
          << ", \"edges_per_second\": " << Finite(Median(eps))
          << ", \"bytes_per_edge\": " << Finite(Median(bpe))
          << ", \"work_items\": " << Finite(Median(wi));
      // Memory fields only where a bench measured them (out-of-core runs):
      // peak_segment_bytes is the cache's adjacency high-water mark,
      // peak_rss_bytes the process-wide getrusage peak that also covers
      // kernel scratch and vertex state.
      if (Median(psb) > 0.0) {
        out << ", \"peak_segment_bytes\": " << Finite(Median(psb));
      }
      if (Median(rss) > 0.0) {
        out << ", \"peak_rss_bytes\": " << Finite(Median(rss));
      }
      out << ", \"repeats\": " << ns.size()
          << ", \"rel_spread\": " << Finite(spread) << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

  bool has_samples() const { return !samples_.empty(); }

 private:
  struct Sample {
    std::string name;
    std::string label;
    double real_ns = 0.0;
    double edges_per_second = 0.0;
    double bytes_per_edge = 0.0;  // 0 unless the bench reports compression
    double work_items = 0.0;  // 0 unless the bench reports per-batch work
    double peak_segment_bytes = 0.0;  // 0 unless out-of-core (perf_sharded)
    double peak_rss_bytes = 0.0;      // 0 unless out-of-core (perf_sharded)
    int64_t threads = 1;
  };

  /// Extracts `key` from a "k1=v1 k2=v2" label; "" when absent.
  static std::string LabelField(const std::string& label,
                                const std::string& key) {
    std::istringstream in(label);
    std::string token;
    while (in >> token) {
      size_t eq = token.find('=');
      if (eq != std::string::npos && token.compare(0, eq, key) == 0) {
        return token.substr(eq + 1);
      }
    }
    return "";
  }

  static double Median(std::vector<double> xs) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    size_t mid = xs.size() / 2;
    return xs.size() % 2 == 1 ? xs[mid] : 0.5 * (xs[mid - 1] + xs[mid]);
  }

  /// JSON has no NaN/Inf literal; a benchmark bug must not poison the whole
  /// file (bench_compare rejects it loudly), so non-finite values emit as 0.
  static double Finite(double x) { return std::isfinite(x) ? x : 0.0; }

  static std::string JsonEscape(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // labels are ASCII
      out.push_back(c);
    }
    return out;
  }

  std::vector<Sample> samples_;
};

}  // namespace ubigraph::bench
