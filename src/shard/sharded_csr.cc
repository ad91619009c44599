#include "shard/sharded_csr.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "algorithms/partition.h"
#include "common/file.h"
#include "common/parallel.h"
#include "common/random.h"
#include "common/status.h"

namespace ubigraph::shard {
namespace {

std::string SegmentFileName(uint32_t s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "segment_%05u.ugsg", s);
  return buf;
}

constexpr const char* kManifestFileName = "manifest.ugsm";

Status WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("sharded csr: cannot create " + path);
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) {
    return Status::IOError("sharded csr: write failed on " + path);
  }
  return Status::OK();
}

/// Stable relabel order: new ids ascend by (part, original id), so each part
/// owns one contiguous new-id range and, within it, vertices keep their
/// original relative order. perm[old] = new.
std::vector<VertexId> PartitionToPermutation(
    const std::vector<uint32_t>& part, uint32_t num_parts,
    std::vector<uint64_t>* shard_begin) {
  std::vector<uint64_t> cursor(num_parts + 1, 0);
  for (uint32_t p : part) ++cursor[p + 1];
  for (uint32_t s = 0; s < num_parts; ++s) cursor[s + 1] += cursor[s];
  *shard_begin = cursor;
  std::vector<VertexId> perm(part.size());
  for (VertexId v = 0; v < part.size(); ++v) {
    perm[v] = static_cast<VertexId>(cursor[part[v]]++);
  }
  return perm;
}

}  // namespace

const char* ShardPartitionerName(ShardPartitioner p) {
  switch (p) {
    case ShardPartitioner::kContiguous:
      return "contiguous";
    case ShardPartitioner::kLdg:
      return "ldg";
    case ShardPartitioner::kBfsGrow:
      return "bfsgrow";
  }
  return "unknown";
}

Result<ShardedCsr> ShardedCsr::Build(const CsrGraph& g,
                                     const ShardOptions& options) {
  const VertexId n = g.num_vertices();
  if (n == 0) {
    return Status::Invalid("ShardedCsr::Build on empty graph");
  }
  if (options.num_shards == 0 || options.num_shards > 65535) {
    return Status::Invalid("ShardedCsr::Build: num_shards must be in "
                           "[1, 65535], got " +
                           std::to_string(options.num_shards));
  }
  const uint32_t S = options.num_shards;

  ShardedCsr sharded;
  ShardManifest& m = sharded.manifest_;
  m.encoding = options.encoding;
  m.directed = g.directed();
  m.num_vertices = n;
  m.num_edges = g.num_edges();

  const CsrGraph* relabeled = &g;
  CsrGraph relabeled_storage;
  if (options.partitioner == ShardPartitioner::kContiguous) {
    // Identity permutation, even contiguous ranges.
    const uint64_t per = (static_cast<uint64_t>(n) + S - 1) / S;
    m.shard_begin.resize(static_cast<size_t>(S) + 1);
    for (uint32_t s = 0; s <= S; ++s) {
      m.shard_begin[s] = std::min<uint64_t>(static_cast<uint64_t>(s) * per, n);
    }
    m.new_to_old.resize(n);
    for (VertexId v = 0; v < n; ++v) m.new_to_old[v] = v;
    if (!g.neighbors_sorted() &&
        options.encoding == SegmentEncoding::kCompressed) {
      return Status::Invalid(
          "ShardedCsr::Build: compressed segments need sorted adjacency "
          "(CsrOptions::sort_neighbors) under the contiguous partitioner, "
          "which keeps the graph's own rows");
    }
  } else {
    algo::Partitioning part;
    if (options.partitioner == ShardPartitioner::kLdg) {
      UG_ASSIGN_OR_RETURN(part,
                          algo::LdgPartition(g, S, options.ldg_capacity_slack));
    } else {
      Rng rng(options.seed);
      UG_ASSIGN_OR_RETURN(part, algo::BfsGrowPartition(g, S, &rng));
    }
    const std::vector<VertexId> perm =
        PartitionToPermutation(part.part, S, &m.shard_begin);
    // sort_neighbors: the gap encoding needs ascending rows, and sorting
    // keeps the anchor (a kernel on this exact relabeled graph) reproducible
    // from (graph, options) alone.
    PermuteOptions popts;
    popts.sort_neighbors = true;
    UG_ASSIGN_OR_RETURN(PermutedCsr permuted, g.Permute(perm, popts));
    relabeled_storage = std::move(permuted.graph);
    relabeled = &relabeled_storage;
    m.new_to_old = std::move(permuted.new_to_old);
  }

  m.degrees.resize(n);
  for (VertexId v = 0; v < n; ++v) {
    m.degrees[v] = static_cast<uint32_t>(relabeled->OutDegree(v));
  }

  const std::vector<uint64_t>& offsets = relabeled->offsets();
  const std::vector<VertexId> column_begin(m.shard_begin.begin(),
                                           m.shard_begin.end());
  std::vector<std::string> blobs(S);
  for (uint32_t s = 0; s < S; ++s) {
    const VertexId begin = column_begin[s];
    const VertexId end = column_begin[s + 1];
    const uint64_t count = end - begin;
    std::vector<uint64_t> local_offsets(count + 1);
    for (uint64_t u = 0; u <= count; ++u) {
      local_offsets[u] = offsets[begin + u] - offsets[begin];
    }
    const std::span<const VertexId> targets(
        relabeled->targets().data() + offsets[begin],
        offsets[end] - offsets[begin]);
    blobs[s] = EncodeSegment(s, column_begin, local_offsets, targets,
                             options.encoding);
  }
  UG_ASSIGN_OR_RETURN(sharded.cache_, SegmentCache::FromBlobs(std::move(blobs)));

  sharded.shard_of_.resize(n);
  for (uint32_t s = 0; s < S; ++s) {
    for (uint64_t v = m.shard_begin[s]; v < m.shard_begin[s + 1]; ++v) {
      sharded.shard_of_[v] = static_cast<uint16_t>(s);
    }
  }
  return sharded;
}

Status ShardedCsr::WriteTo(const std::string& dir) const {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("sharded csr: cannot create directory " + dir +
                           ": " + ec.message());
  }
  UG_RETURN_NOT_OK(WriteWholeFile(dir + "/" + kManifestFileName,
                                  EncodeManifest(manifest_)));
  for (uint32_t s = 0; s < num_shards(); ++s) {
    UG_ASSIGN_OR_RETURN(std::span<const uint8_t> bytes,
                        cache_->SerializedBytes(s));
    UG_RETURN_NOT_OK(WriteWholeFile(
        dir + "/" + SegmentFileName(s),
        std::string(reinterpret_cast<const char*>(bytes.data()),
                    bytes.size())));
  }
  return Status::OK();
}

Result<ShardedCsr> ShardedCsr::Open(const std::string& dir,
                                    const ShardOpenOptions& options) {
  UG_ASSIGN_OR_RETURN(
      std::string manifest_bytes,
      ReadWholeFile(dir + "/" + kManifestFileName, "sharded csr: "));
  ShardedCsr sharded;
  UG_ASSIGN_OR_RETURN(
      sharded.manifest_,
      DecodeManifest({reinterpret_cast<const uint8_t*>(manifest_bytes.data()),
                      manifest_bytes.size()}));
  const uint32_t S = sharded.num_shards();
  if (S > 65535) {
    return Status::Corruption("sharded csr: manifest claims " +
                              std::to_string(S) + " shards; limit is 65535");
  }
  std::vector<std::string> paths(S);
  for (uint32_t s = 0; s < S; ++s) {
    paths[s] = dir + "/" + SegmentFileName(s);
  }
  SegmentCache::Options copts;
  copts.storage = options.storage;
  copts.budget_bytes = options.budget_bytes;
  UG_ASSIGN_OR_RETURN(sharded.cache_,
                      SegmentCache::FromFiles(std::move(paths), copts));

  const VertexId n = sharded.num_vertices();
  sharded.shard_of_.resize(n);
  for (uint32_t s = 0; s < S; ++s) {
    for (uint64_t v = sharded.manifest_.shard_begin[s];
         v < sharded.manifest_.shard_begin[s + 1]; ++v) {
      sharded.shard_of_[v] = static_cast<uint16_t>(s);
    }
  }
  return sharded;
}

std::span<const double> ShardedCsr::InvOutDegrees(unsigned workers) const {
  std::call_once(derived_->inv_outdeg_once, [&] {
    const VertexId n = num_vertices();
    std::vector<double>& inv = derived_->inv_outdeg;
    inv.resize(n);
    const std::span<const uint32_t> deg = degrees();
    ParallelFor(workers, 0, n,
                [&](uint64_t v) { inv[v] = deg[v] > 0 ? 1.0 / deg[v] : 0.0; });
  });
  return derived_->inv_outdeg;
}

std::span<const VertexId> ShardedCsr::OldToNew(unsigned workers) const {
  std::call_once(derived_->old_to_new_once, [&] {
    const VertexId n = num_vertices();
    std::vector<VertexId>& o2n = derived_->old_to_new;
    o2n.resize(n);
    const std::span<const VertexId> n2o = new_to_old();
    // Scatter inverse: disjoint writes (new_to_old is a permutation), so the
    // chunked parallel fill is race-free.
    ParallelFor(workers, 0, n,
                [&](uint64_t v) { o2n[n2o[v]] = static_cast<VertexId>(v); });
  });
  return derived_->old_to_new;
}

Result<SegmentCache::Pin> ShardedCsr::AcquireShard(uint32_t s) const {
  UG_ASSIGN_OR_RETURN(SegmentCache::Pin pin, cache_->Acquire(s));
  const SegmentView& v = pin.view();
  if (v.shard_id != s || v.begin != shard_begin(s) ||
      v.end != shard_begin(s + 1) || v.num_shards != num_shards() ||
      v.num_vertices != num_vertices() || v.encoding != manifest_.encoding) {
    return Status::Corruption(
        "sharded csr: segment " + std::to_string(s) +
        " does not match the manifest (vertex range [" +
        std::to_string(v.begin) + ", " + std::to_string(v.end) +
        ") vs manifest [" + std::to_string(shard_begin(s)) + ", " +
        std::to_string(shard_begin(s + 1)) + "))");
  }
  return pin;
}

}  // namespace ubigraph::shard
