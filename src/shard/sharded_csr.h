// ShardedCsr: a graph split into contiguous relabeled vertex ranges, one
// serialized segment per shard (segment.h), served through a SegmentCache
// (segment_cache.h). This is the out-of-core substrate: a kernel keeps O(V)
// vertex state in RAM and streams the O(E) adjacency shard-at-a-time, so the
// graph's total segment bytes never need to be resident at once.
//
// Build() partitions the original graph (contiguous split, LDG, or BFS-grow),
// relabels vertices by (part, original id) — a stable permutation, so each
// shard owns one contiguous range of new ids — and encodes per-shard
// segments in memory. WriteTo()/Open() round-trip the whole thing through a
// directory of files (manifest.ugsm + segment_NNN.ugsg) for the mmap-backed
// out-of-core mode. Edge weights are not carried; weighted kernels stay on
// CsrGraph.
//
// Determinism contract (see DESIGN.md "Sharded out-of-core execution"): the
// permutation depends only on the partitioner inputs (graph, shard count,
// seed), never on thread count, and kContiguous is the identity permutation
// at every shard count — so kernels that fold each destination in ascending
// source order (shard_kernels.h) reproduce the in-RAM kernels' exact float
// associations.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "graph/csr_graph.h"
#include "shard/segment.h"
#include "shard/segment_cache.h"

namespace ubigraph::shard {

/// How Build assigns vertices to shards.
enum class ShardPartitioner : uint8_t {
  /// Even contiguous ranges of the ORIGINAL vertex ids (identity
  /// permutation). No locality optimization, but sharded kernel output is
  /// bitwise-identical to the in-RAM kernels on the original graph at every
  /// shard count.
  kContiguous = 0,
  /// algo::LdgPartition — streaming linear deterministic greedy.
  kLdg = 1,
  /// algo::BfsGrowPartition — seeded BFS region growing (deterministic for a
  /// fixed seed; pinned by tests/partition_test.cc).
  kBfsGrow = 2,
};

const char* ShardPartitionerName(ShardPartitioner p);

struct ShardOptions {
  uint32_t num_shards = 4;  // in [1, 65535]
  ShardPartitioner partitioner = ShardPartitioner::kContiguous;
  SegmentEncoding encoding = SegmentEncoding::kPlain;
  /// kBfsGrow seed.
  uint64_t seed = 42;
  /// kLdg capacity slack (>= 1.0).
  double ldg_capacity_slack = 1.1;
};

struct ShardOpenOptions {
  SegmentStorage storage = SegmentStorage::kMapped;
  /// See SegmentCache::Options::budget_bytes.
  uint64_t budget_bytes = 0;
};

class ShardedCsr {
 public:
  /// Partitions, relabels, and encodes `g` into in-memory segments.
  /// Neighbor rows are re-sorted by new id during the relabel (required by
  /// the gap encoding; push/BFS/CC kernels are invariant to within-row
  /// order).
  static Result<ShardedCsr> Build(const CsrGraph& g,
                                  const ShardOptions& options = {});

  /// Writes manifest + one segment file per shard into `dir` (created if
  /// missing). Only valid on a Build-produced (in-memory) instance.
  Status WriteTo(const std::string& dir) const;

  /// Opens a WriteTo directory. The manifest is fully validated here;
  /// segment headers are probed here and payloads verified on first load.
  static Result<ShardedCsr> Open(const std::string& dir,
                                 const ShardOpenOptions& options = {});

  VertexId num_vertices() const {
    return static_cast<VertexId>(manifest_.num_vertices);
  }
  uint64_t num_edges() const { return manifest_.num_edges; }
  uint32_t num_shards() const {
    return static_cast<uint32_t>(manifest_.shard_begin.size() - 1);
  }
  bool directed() const { return manifest_.directed; }
  SegmentEncoding encoding() const { return manifest_.encoding; }

  /// First relabeled id of shard s; shard_begin(num_shards()) == V.
  VertexId shard_begin(uint32_t s) const {
    return static_cast<VertexId>(manifest_.shard_begin[s]);
  }
  uint32_t shard_of(VertexId v) const { return shard_of_[v]; }

  /// Out-degree per relabeled id (resident; kernels use it for dangling and
  /// inverse-degree state without touching segments).
  std::span<const uint32_t> degrees() const { return manifest_.degrees; }
  /// Relabeled id -> original id (resident). Kernels translate results back
  /// through this so callers always see original ids.
  std::span<const VertexId> new_to_old() const { return manifest_.new_to_old; }

  /// 1/out-degree per relabeled id (0.0 for sinks) — PageRank's per-source
  /// contribution factor. Built on first use (over `workers` threads, per
  /// common/parallel.h) and cached for the life of this instance; a
  /// ShardedCsr is immutable after Build/Open, so the cache can never go
  /// stale. Thread-safe.
  std::span<const double> InvOutDegrees(unsigned workers = 1) const;

  /// Original id -> relabeled id, the inverse of new_to_old(). Same caching
  /// and threading contract as InvOutDegrees().
  std::span<const VertexId> OldToNew(unsigned workers = 1) const;

  SegmentCache& cache() const { return *cache_; }

  /// Acquire + cross-check: the pinned view must cover exactly this shard's
  /// manifest range in a grid of the manifest's shape (catches a valid
  /// segment file swapped in from another graph or layout). Kernels check
  /// every decoded id against the manifest's columns, not the segment's.
  Result<SegmentCache::Pin> AcquireShard(uint32_t s) const;

 private:
  // Lazily-built derived state (satellite of the kernel hot-path hoist: the
  // kernels used to rebuild these serially on every call). Boxed so the
  // std::once_flags don't make ShardedCsr unmovable.
  struct Derived {
    std::once_flag inv_outdeg_once;
    std::once_flag old_to_new_once;
    std::vector<double> inv_outdeg;
    std::vector<VertexId> old_to_new;
  };

  ShardedCsr() : derived_(std::make_unique<Derived>()) {}

  ShardManifest manifest_;
  std::vector<uint16_t> shard_of_;  // size V; why num_shards <= 65535
  std::unique_ptr<SegmentCache> cache_;
  std::unique_ptr<Derived> derived_;
};

}  // namespace ubigraph::shard
