// Sharded, out-of-core execution (src/shard/): shard build + encode, the
// shard-at-a-time kernels over in-memory segments, and the mmap-backed
// segment cache under a byte budget smaller than the total segment bytes —
// true out-of-core runs whose records carry peak_segment_bytes (the cache's
// high-water mark of ADJACENCY bytes) and peak_rss_bytes (the process's
// getrusage high-water mark) next to the machine-independent work counters.
// The work counters are the arcs the workers decoded. Each worker decodes
// only its own destination columns' blocks of every segment (segment.h), so
// a 4-thread record carries the same work_items as the 1-thread one.
//
// Args convention: {scale, num_shards[, num_threads]}. The /12/ slice feeds
// ci/perf_smoke.sh; the scale-22 out-of-core rows are the BENCH.json
// acceptance records. Determinism across configurations is pinned by
// tests/sharded_test.cc, not by wall-clock here.
//
// A caveat on peak_rss_bytes: ru_maxrss is monotone over the PROCESS, so a
// record's RSS includes everything earlier benches in the same binary
// touched.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <filesystem>
#include <map>
#include <string>

#include "algorithms/partition.h"
#include "graph/ordering.h"
#include "perf_common.h"
#include "perf_obs.h"
#include "shard/shard_kernels.h"
#include "shard/sharded_csr.h"

namespace ubigraph {
namespace {

namespace fs = std::filesystem;

shard::ShardOptions BenchShardOptions(uint32_t num_shards) {
  shard::ShardOptions opts;
  opts.num_shards = num_shards;
  // Contiguous keeps Build cheap at scale 22 and leaves the skew for the
  // edge_imbalance counter to expose; the partitioner comparison lives in
  // perf_partition.
  opts.partitioner = shard::ShardPartitioner::kContiguous;
  opts.encoding = shard::SegmentEncoding::kCompressed;
  return opts;
}

/// Cached sharded build of the standard bench RMAT graph.
const shard::ShardedCsr& ShardedRmat(uint32_t scale, uint32_t num_shards) {
  static std::map<std::pair<uint32_t, uint32_t>, shard::ShardedCsr> cache;
  auto key = std::make_pair(scale, num_shards);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache
             .emplace(key, shard::ShardedCsr::Build(bench::RmatGraph(scale),
                                                    BenchShardOptions(
                                                        num_shards))
                               .ValueOrDie())
             .first;
  }
  return it->second;
}

/// Segment directory on disk for the out-of-core benches, written once per
/// (scale, shards) and deleted when the process exits.
class SegmentDir {
 public:
  SegmentDir(uint32_t scale, uint32_t num_shards) {
    path_ = fs::temp_directory_path() /
            ("ubigraph_perf_sharded_" + std::to_string(scale) + "_" +
             std::to_string(num_shards));
    fs::remove_all(path_);
    const shard::ShardedCsr& s = ShardedRmat(scale, num_shards);
    if (!s.WriteTo(path_.string()).ok()) std::abort();
    total_bytes_ = s.cache().total_bytes();
  }
  ~SegmentDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string str() const { return path_.string(); }
  uint64_t total_bytes() const { return total_bytes_; }

 private:
  fs::path path_;
  uint64_t total_bytes_ = 0;
};

const SegmentDir& RmatSegmentDir(uint32_t scale, uint32_t num_shards) {
  static std::map<std::pair<uint32_t, uint32_t>, SegmentDir> cache;
  auto key = std::make_pair(scale, num_shards);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(std::piecewise_construct, std::forward_as_tuple(key),
                       std::forward_as_tuple(scale, num_shards))
             .first;
  }
  return it->second;
}

// Partition + relabel + segment encode; reports the vertex- and edge-balance
// of the resulting shards (EvaluatePartition's imbalance/edge_imbalance —
// contiguous splits are vertex-perfect but work-skewed on RMAT).
void BM_ShardedBuild(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const uint32_t num_shards = static_cast<uint32_t>(state.range(1));
  const CsrGraph& g = bench::RmatGraph(scale);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        shard::ShardedCsr::Build(g, BenchShardOptions(num_shards))
            .ValueOrDie());
  }
  const shard::ShardedCsr& s = ShardedRmat(scale, num_shards);
  algo::Partitioning part;
  part.num_parts = num_shards;
  part.part.resize(g.num_vertices());
  const std::vector<VertexId> old_to_new = InversePermutation(s.new_to_old());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    part.part[v] = s.shard_of(old_to_new[v]);
  }
  const algo::PartitionQuality q = algo::EvaluatePartition(g, part).ValueOrDie();
  state.counters["imbalance"] = q.imbalance;
  state.counters["edge_imbalance"] = q.edge_imbalance;
  state.SetItemsProcessed(state.iterations() * g.num_edges());
  bench::SetWorkItems(state, static_cast<double>(g.num_edges()));
  state.SetLabel("kernel=shard_build mode=contiguous graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = 1.0;
}
BENCHMARK(BM_ShardedBuild)->Args({12, 16})->Args({22, 64});

// Shard-at-a-time PageRank over in-memory segments (fixed 10 iterations);
// Args = {scale, shards, threads}.
void BM_ShardedPageRank(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const shard::ShardedCsr& s =
      ShardedRmat(scale, static_cast<uint32_t>(state.range(1)));
  shard::ShardedPageRankOptions opts;
  opts.max_iterations = 10;
  opts.tolerance = 0;
  opts.num_threads = static_cast<uint32_t>(state.range(2));
  bench::WorkProbe work({"shard.pagerank.edges_streamed"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(shard::ShardedPageRank(s, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * s.num_edges() * 10);
  work.Flush(state);
  state.SetLabel("kernel=pagerank mode=sharded graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(2));
}
BENCHMARK(BM_ShardedPageRank)
    ->Args({12, 16, 1})
    ->Args({12, 16, 4})
    ->Args({22, 64, 1});

/// Process-wide peak RSS from the kernel, in bytes (ru_maxrss is KiB on
/// Linux). Monotone over the process lifetime, so when the whole binary runs
/// it also covers earlier benches' cached in-RAM graphs — an upper bound,
/// honest about everything the cache counter cannot see.
double PeakRssBytes() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) * 1024.0;
}

// The acceptance record: PageRank streaming mmap'ed segments under a cache
// budget of total/4 — the graph's ADJACENCY is never fully resident
// (peak_segment_bytes < total segment bytes by construction). No message
// scratch exists: workers fold contributions straight into the destination
// ranges they own, so the run's heap is the O(V) vertex state plus the cache
// budget — fully out-of-core, not semi-external.
void BM_ShardedPageRankOutOfCore(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const uint32_t num_shards = static_cast<uint32_t>(state.range(1));
  const SegmentDir& dir = RmatSegmentDir(scale, num_shards);
  shard::ShardOpenOptions oopts;
  oopts.storage = shard::SegmentStorage::kMapped;
  oopts.budget_bytes = dir.total_bytes() / 4;
  auto s = shard::ShardedCsr::Open(dir.str(), oopts).ValueOrDie();
  shard::ShardedPageRankOptions opts;
  opts.max_iterations = 10;
  opts.tolerance = 0;
  bench::WorkProbe work({"shard.pagerank.edges_streamed"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(shard::ShardedPageRank(s, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * s.num_edges() * 10);
  work.Flush(state);
  state.counters["peak_segment_bytes"] =
      static_cast<double>(s.cache().peak_segment_bytes());
  state.counters["peak_rss_bytes"] = PeakRssBytes();
  state.counters["budget_bytes"] =
      static_cast<double>(s.cache().budget_bytes());
  state.counters["total_segment_bytes"] =
      static_cast<double>(s.cache().total_bytes());
  state.SetLabel("kernel=pagerank mode=outofcore graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = 1.0;
}
BENCHMARK(BM_ShardedPageRankOutOfCore)->Args({12, 16})->Args({22, 64});

// BFS with per-level segment skipping (shards holding no frontier vertex are
// never touched); Args = {scale, shards, threads}.
void BM_ShardedBfs(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const shard::ShardedCsr& s =
      ShardedRmat(scale, static_cast<uint32_t>(state.range(1)));
  const VertexId root = bench::BfsRoot(bench::RmatGraph(scale));
  shard::ShardedTraversalOptions opts;
  opts.num_threads = static_cast<uint32_t>(state.range(2));
  bench::WorkProbe work({"shard.bfs.edges_scanned"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(shard::ShardedBfs(s, root, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * s.num_edges());
  work.Flush(state);
  state.SetLabel("kernel=bfs mode=sharded graph=rmat" + std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(2));
}
BENCHMARK(BM_ShardedBfs)
    ->Args({12, 16, 1})
    ->Args({12, 16, 4})
    ->Args({22, 64, 1});

// One-sweep union-find components; Args = {scale, shards, threads}.
void BM_ShardedComponents(benchmark::State& state) {
  const uint32_t scale = static_cast<uint32_t>(state.range(0));
  const shard::ShardedCsr& s =
      ShardedRmat(scale, static_cast<uint32_t>(state.range(1)));
  shard::ShardedTraversalOptions opts;
  opts.num_threads = static_cast<uint32_t>(state.range(2));
  bench::WorkProbe work({"shard.cc.edges_scanned"});
  for (auto _ : state) {
    benchmark::DoNotOptimize(shard::ShardedComponents(s, opts).ValueOrDie());
  }
  state.SetItemsProcessed(state.iterations() * s.num_edges());
  work.Flush(state);
  state.SetLabel("kernel=components mode=sharded graph=rmat" +
                 std::to_string(scale));
  state.counters["threads"] = static_cast<double>(state.range(2));
}
BENCHMARK(BM_ShardedComponents)
    ->Args({12, 16, 1})
    ->Args({12, 16, 4})
    ->Args({22, 64, 1});

}  // namespace
}  // namespace ubigraph

UBIGRAPH_BENCHMARK_MAIN_WITH_OBS();
