#include "shard/segment.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/crc32.h"
#include "common/status.h"
#include "graph/compressed_csr.h"

namespace ubigraph::shard {
namespace {

template <typename T>
void AppendPod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void AppendArray(std::string& out, const T* p, size_t n) {
  out.append(reinterpret_cast<const char*>(p), n * sizeof(T));
}

/// One bit per byte of the little-endian word `w`, in memory order: bit i
/// is byte i's continuation (high) bit. The multiply gathers the eight
/// flags into the top byte without carries.
inline uint64_t ContinuationBits(uint64_t w) {
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return (((w >> 7) & 0x0101010101010101ull) * 0x0102040810204080ull) >> 56;
}

/// Nonzero when `m` holds five consecutive set bits: five continuation bytes
/// in a row, a varint longer than 5 bytes.
inline uint64_t RunOfFive(uint64_t m) {
  return m & (m >> 1) & (m >> 2) & (m >> 3) & (m >> 4);
}

/// The column holding id v < column_begin.back(): the last t with
/// column_begin[t] <= v. A branch-free binary search — on power-law rows
/// std::upper_bound's mispredictions took over a third of the encode time.
uint32_t ColumnOf(std::span<const VertexId> column_begin, VertexId v) {
  const VertexId* base = column_begin.data();
  for (size_t n = column_begin.size() - 1; n > 1; n -= n / 2) {
    base = base[n / 2] <= v ? base + n / 2 : base;
  }
  return static_cast<uint32_t>(base - column_begin.data());
}

Status SegmentCorruption(const std::string& what) {
  return Status::Corruption("segment decode: " + what);
}

}  // namespace

const char* SegmentEncodingName(SegmentEncoding e) {
  return e == SegmentEncoding::kPlain ? "plain" : "compressed";
}

Status SegmentView::BadEntry(uint32_t t, const char* what) const {
  return Status::Corruption("segment " + std::to_string(shard_id) + " block " +
                            std::to_string(t) + ": " + what);
}

std::string EncodeSegment(uint32_t shard_id,
                          std::span<const VertexId> column_begin,
                          std::span<const uint64_t> row_offsets,
                          std::span<const VertexId> targets,
                          SegmentEncoding encoding) {
  const uint32_t S = static_cast<uint32_t>(column_begin.size() - 1);
  const VertexId begin = column_begin[shard_id];
  const VertexId end = column_begin[shard_id + 1];
  const bool compressed = encoding == SegmentEncoding::kCompressed;

  // Each block's entry headers and ids, as two streams, each first sized
  // for an even share of the segment's arcs so most never grow.
  std::vector<std::vector<uint8_t>> headers(S), ids(S);
  const size_t share = targets.size() / S + 1;
  std::vector<VertexId> base(S, 0);  // row each block's next delta is from
  std::vector<VertexId> sorted;      // an unsorted row, sorted
  uint64_t entries = 0;
  for (VertexId u = 0; u < end - begin; ++u) {
    std::span<const VertexId> row =
        targets.subspan(row_offsets[u], row_offsets[u + 1] - row_offsets[u]);
    if (!std::is_sorted(row.begin(), row.end())) {
      sorted.assign(row.begin(), row.end());
      std::sort(sorted.begin(), sorted.end());
      row = sorted;
    }
    // A sorted row splits into one run of ids per column it touches.
    for (size_t i = 0; i < row.size();) {
      const uint32_t t = ColumnOf(column_begin, row[i]);
      size_t j = i + 1;
      while (j < row.size() && row[j] < column_begin[t + 1]) ++j;
      if (headers[t].empty()) {
        headers[t].reserve(2 * share);
        ids[t].reserve((compressed ? 2 : sizeof(VertexId)) * share);
      }
      AppendVarint(headers[t], u - base[t]);
      base[t] = u;
      std::vector<uint8_t>& out = ids[t];
      if (compressed) {
        const size_t start = out.size();
        VertexId prev = column_begin[t];
        for (size_t k = i; k < j; ++k) {
          AppendVarint(out, row[k] - prev);
          prev = row[k];
        }
        AppendVarint(headers[t], out.size() - start);
      } else {
        AppendVarint(headers[t], j - i);
        const auto* raw = reinterpret_cast<const uint8_t*>(row.data() + i);
        out.insert(out.end(), raw, raw + (j - i) * sizeof(VertexId));
      }
      ++entries;
      i = j;
    }
  }
  // Block t is varint(header bytes), its entry headers, then its ids.
  std::vector<std::vector<uint8_t>> prefix(S);
  std::vector<uint64_t> block_offsets(static_cast<size_t>(S) + 1, 0);
  for (uint32_t t = 0; t < S; ++t) {
    if (!headers[t].empty()) AppendVarint(prefix[t], headers[t].size());
    block_offsets[t + 1] = block_offsets[t] + prefix[t].size() +
                           headers[t].size() + ids[t].size();
  }

  SegmentHeader h;
  std::memcpy(h.magic, kSegmentMagic, sizeof h.magic);
  h.flags = compressed ? kSegmentFlagCompressed : 0;
  h.shard_id = shard_id;
  h.num_shards = S;
  h.num_vertices = column_begin[S];
  h.vertex_begin = begin;
  h.vertex_end = end;
  h.num_edges = targets.size();
  h.num_entries = entries;
  h.payload_bytes = (static_cast<uint64_t>(S) + 1) *
                        (sizeof(uint64_t) + sizeof(VertexId)) +
                    block_offsets[S];

  std::string out;
  out.reserve(sizeof h + h.payload_bytes + sizeof(uint32_t));
  AppendPod(out, h);
  AppendArray(out, block_offsets.data(), block_offsets.size());
  AppendArray(out, column_begin.data(), column_begin.size());
  for (uint32_t t = 0; t < S; ++t) {
    AppendArray(out, prefix[t].data(), prefix[t].size());
    AppendArray(out, headers[t].data(), headers[t].size());
    AppendArray(out, ids[t].data(), ids[t].size());
  }
  AppendPod(out, Crc32(out.data(), out.size()));
  return out;
}

Result<uint64_t> CountVarints(std::span<const uint8_t> bytes) {
  const uint8_t* p = bytes.data();
  const size_t n = bytes.size();
  uint64_t continuations = 0, overlong = 0, prev = 0;
  // Folds 64 bytes of continuation bits: runs inside them, then runs that
  // straddle the previous 64 (at most 4 bytes fall on either side).
  auto fold = [&](const uint8_t* chunk) {
    uint64_t mask = 0;
    for (int k = 0; k < 8; ++k) {
      uint64_t w;
      std::memcpy(&w, chunk + 8 * k, sizeof w);
      mask |= ContinuationBits(w) << (8 * k);
    }
    continuations += std::popcount(mask);
    overlong |= RunOfFive(mask) | RunOfFive((prev >> 60) | ((mask & 0xf) << 4));
    prev = mask;
  };
  size_t i = 0;
  for (; i + 64 <= n; i += 64) fold(p + i);
  if (i < n) {
    uint8_t tail[64] = {};  // zero padding: terminators, never continuations
    std::memcpy(tail, p + i, n - i);
    fold(tail);
  }
  if (overlong != 0) {
    return SegmentCorruption("varint longer than 5 bytes");
  }
  if (n > 0 && (p[n - 1] & 0x80)) {
    return SegmentCorruption("varint stream ends inside a varint");
  }
  return n - continuations;
}

Result<SegmentView> DecodeSegment(std::span<const uint8_t> data, bool verify) {
  if (data.size() < sizeof(SegmentHeader) + sizeof(uint32_t)) {
    return SegmentCorruption(
        std::to_string(data.size()) +
        " bytes is shorter than the 64-byte header plus checksum");
  }
  if (reinterpret_cast<uintptr_t>(data.data()) % alignof(uint64_t) != 0) {
    return Status::Invalid(
        "segment decode: buffer must be 8-byte aligned for zero-copy "
        "directory views (heap allocations and mmap pages are)");
  }
  SegmentHeader h;
  std::memcpy(&h, data.data(), sizeof h);
  if (std::memcmp(h.magic, kSegmentMagic, sizeof h.magic) != 0) {
    return Status::Invalid("segment decode: bad magic — not a UGSG segment");
  }
  if (h.version != kSegmentFormatVersion) {
    return Status::Invalid("segment decode: format version " +
                           std::to_string(h.version) + " unsupported (reader "
                           "understands " +
                           std::to_string(kSegmentFormatVersion) + ")");
  }
  if (h.flags & ~kSegmentFlagCompressed) {
    return Status::Invalid("segment decode: unknown flag bits 0x" +
                           std::to_string(h.flags));
  }
  if (h.num_shards == 0 || h.shard_id >= h.num_shards) {
    return SegmentCorruption("shard " + std::to_string(h.shard_id) + " of " +
                             std::to_string(h.num_shards));
  }
  if (h.vertex_begin > h.vertex_end || h.vertex_end > h.num_vertices) {
    return SegmentCorruption("vertex range [" + std::to_string(h.vertex_begin) +
                             ", " + std::to_string(h.vertex_end) +
                             ") inconsistent with graph vertex count " +
                             std::to_string(h.num_vertices));
  }
  if (h.payload_bytes !=
      data.size() - sizeof(SegmentHeader) - sizeof(uint32_t)) {
    return SegmentCorruption(
        "header claims " + std::to_string(h.payload_bytes) +
        " payload bytes but the file holds " +
        std::to_string(data.size() - sizeof(SegmentHeader) - sizeof(uint32_t)));
  }
  // Sized by division, never by multiplying the header's shard count.
  const uint64_t S = h.num_shards;
  constexpr uint64_t kDirBytes = sizeof(uint64_t) + sizeof(VertexId);
  if (S + 1 > h.payload_bytes / kDirBytes) {
    return SegmentCorruption("payload too small for a " + std::to_string(S) +
                             "-block directory");
  }
  if (verify) {
    uint32_t stored;
    std::memcpy(&stored, data.data() + data.size() - sizeof stored,
                sizeof stored);
    const uint32_t actual = Crc32(data.data(), data.size() - sizeof stored);
    if (stored != actual) {
      return SegmentCorruption("checksum mismatch (stored " +
                               std::to_string(stored) + ", computed " +
                               std::to_string(actual) + ")");
    }
  }

  const uint8_t* payload = data.data() + sizeof(SegmentHeader);
  SegmentView v;
  v.shard_id = h.shard_id;
  v.num_shards = h.num_shards;
  v.num_vertices = h.num_vertices;
  v.begin = static_cast<VertexId>(h.vertex_begin);
  v.end = static_cast<VertexId>(h.vertex_end);
  v.encoding = (h.flags & kSegmentFlagCompressed) ? SegmentEncoding::kCompressed
                                                  : SegmentEncoding::kPlain;
  v.block_offsets = reinterpret_cast<const uint64_t*>(payload);
  v.column_begin =
      reinterpret_cast<const VertexId*>(payload + (S + 1) * sizeof(uint64_t));
  v.blocks = payload + (S + 1) * kDirBytes;
  const uint64_t area = h.payload_bytes - (S + 1) * kDirBytes;

  if (v.block_offsets[0] != 0 || v.block_offsets[S] != area) {
    return SegmentCorruption("block directory does not span the " +
                             std::to_string(area) + "-byte block area");
  }
  for (uint64_t t = 0; t < S; ++t) {
    if (v.block_offsets[t] > v.block_offsets[t + 1]) {
      return SegmentCorruption("block directory not ascending at block " +
                               std::to_string(t));
    }
  }
  if (v.column_begin[0] != 0 || v.column_begin[S] != h.num_vertices ||
      v.column_begin[h.shard_id] != v.begin ||
      v.column_begin[h.shard_id + 1] != v.end) {
    return SegmentCorruption(
        "column boundaries must run from 0 to the vertex count, with the "
        "segment's own column equal to its rows");
  }
  for (uint64_t t = 0; t < S; ++t) {
    if (v.column_begin[t] > v.column_begin[t + 1]) {
      return SegmentCorruption("column boundaries not ascending at block " +
                               std::to_string(t));
    }
  }

  // Every entry spends at least two header bytes and every id at least one
  // byte (four when plain): header counts the area cannot hold are lies,
  // caught by division before anything multiplies them.
  const uint64_t id_bytes =
      v.encoding == SegmentEncoding::kPlain ? sizeof(VertexId) : 1;
  if (h.num_entries > area / 2 || h.num_edges > area / id_bytes) {
    return SegmentCorruption(
        "header counts of " + std::to_string(h.num_entries) + " entries and " +
        std::to_string(h.num_edges) + " ids exceed the " +
        std::to_string(area) + "-byte block area");
  }
  if (v.encoding == SegmentEncoding::kCompressed) {
    // Every varint — entry headers and ids alike — ends within 5 bytes and
    // inside its block, which is what the block scanner's decoder assumes.
    UG_ASSIGN_OR_RETURN(const uint64_t varints, CountVarints({v.blocks, area}));
    uint64_t filled = 0;  // non-empty blocks, each led by its header length
    for (uint64_t t = 0; t < S; ++t) {
      const uint64_t b = v.block_offsets[t], e = v.block_offsets[t + 1];
      if (b == e) continue;
      ++filled;
      if (v.blocks[e - 1] & 0x80) {
        return SegmentCorruption("block " + std::to_string(t) +
                                 " ends inside a varint");
      }
    }
    if (varints != filled + 2 * h.num_entries + h.num_edges) {
      return SegmentCorruption(
          std::to_string(varints) + " varints do not hold " +
          std::to_string(filled) + " block headers, " +
          std::to_string(h.num_entries) + " two-varint entry headers and " +
          std::to_string(h.num_edges) + " ids");
    }
  }

  if (verify) {
    uint64_t entries = 0, ids = 0;
    for (uint32_t t = 0; t < S; ++t) {
      UG_RETURN_NOT_OK(v.ScanBlock<true>(
          t, v.column_begin[t], v.column_begin[t + 1], [&](VertexId, auto row) {
        ++entries;
        for (VertexId id : row) {
          (void)id;
          ++ids;
        }
      }));
    }
    if (entries != h.num_entries || ids != h.num_edges) {
      return SegmentCorruption(
          "blocks hold " + std::to_string(entries) + " entries and " +
          std::to_string(ids) + " ids; the header says " +
          std::to_string(h.num_entries) + " and " +
          std::to_string(h.num_edges));
    }
  }
  return v;
}

namespace {

/// Manifest file header (40 bytes, 8-byte aligned tail) followed by
/// u64 shard_begin[S+1], u32 degrees[V], u32 new_to_old[V], u32 crc.
struct ManifestHeader {
  char magic[4];
  uint32_t version = kManifestFormatVersion;
  uint32_t flags = 0;
  uint32_t num_shards = 0;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  uint64_t reserved = 0;
};
static_assert(sizeof(ManifestHeader) == 40);

inline constexpr uint32_t kManifestFlagCompressed = 1u << 0;
inline constexpr uint32_t kManifestFlagDirected = 1u << 1;

}  // namespace

std::string EncodeManifest(const ShardManifest& m) {
  ManifestHeader h;
  std::memcpy(h.magic, kManifestMagic, sizeof h.magic);
  h.flags =
      (m.encoding == SegmentEncoding::kCompressed ? kManifestFlagCompressed
                                                  : 0) |
      (m.directed ? kManifestFlagDirected : 0);
  h.num_shards = static_cast<uint32_t>(m.shard_begin.size() - 1);
  h.num_vertices = m.num_vertices;
  h.num_edges = m.num_edges;

  std::string out;
  out.reserve(sizeof h + m.shard_begin.size() * sizeof(uint64_t) +
              m.degrees.size() * sizeof(uint32_t) +
              m.new_to_old.size() * sizeof(VertexId) + sizeof(uint32_t));
  AppendPod(out, h);
  AppendArray(out, m.shard_begin.data(), m.shard_begin.size());
  AppendArray(out, m.degrees.data(), m.degrees.size());
  AppendArray(out, m.new_to_old.data(), m.new_to_old.size());
  AppendPod(out, Crc32(out.data(), out.size()));
  return out;
}

Result<ShardManifest> DecodeManifest(std::span<const uint8_t> data) {
  if (data.size() < sizeof(ManifestHeader) + sizeof(uint32_t)) {
    return Status::Corruption(
        "manifest decode: " + std::to_string(data.size()) +
        " bytes is shorter than the 40-byte header plus checksum");
  }
  ManifestHeader h;
  std::memcpy(&h, data.data(), sizeof h);
  if (std::memcmp(h.magic, kManifestMagic, sizeof h.magic) != 0) {
    return Status::Invalid("manifest decode: bad magic — not a UGSM manifest");
  }
  if (h.version != kManifestFormatVersion) {
    return Status::Invalid("manifest decode: format version " +
                           std::to_string(h.version) + " unsupported (reader "
                           "understands " +
                           std::to_string(kManifestFormatVersion) + ")");
  }
  if (h.flags & ~(kManifestFlagCompressed | kManifestFlagDirected)) {
    return Status::Invalid("manifest decode: unknown flag bits 0x" +
                           std::to_string(h.flags));
  }
  // num_vertices == 0 is rejected to mirror ShardedCsr::Build's empty-graph
  // check: a degenerate manifest would otherwise open cleanly and feed n = 0
  // into kernels (1.0/n teleport, empty-array indexing).
  if (h.num_shards == 0 || h.num_vertices == 0 || h.num_vertices > UINT32_MAX) {
    return Status::Corruption("manifest decode: implausible shape (" +
                              std::to_string(h.num_shards) + " shards, " +
                              std::to_string(h.num_vertices) + " vertices)");
  }
  const uint64_t expected =
      sizeof h + (static_cast<uint64_t>(h.num_shards) + 1) * sizeof(uint64_t) +
      h.num_vertices * (sizeof(uint32_t) + sizeof(VertexId)) +
      sizeof(uint32_t);
  if (data.size() != expected) {
    return Status::Corruption("manifest decode: file is " +
                              std::to_string(data.size()) + " bytes, header "
                              "implies " + std::to_string(expected));
  }
  uint32_t stored;
  std::memcpy(&stored, data.data() + data.size() - sizeof stored,
              sizeof stored);
  const uint32_t actual = Crc32(data.data(), data.size() - sizeof stored);
  if (stored != actual) {
    return Status::Corruption("manifest decode: checksum mismatch (stored " +
                              std::to_string(stored) + ", computed " +
                              std::to_string(actual) + ")");
  }

  ShardManifest m;
  m.encoding = (h.flags & kManifestFlagCompressed) ? SegmentEncoding::kCompressed
                                                   : SegmentEncoding::kPlain;
  m.directed = (h.flags & kManifestFlagDirected) != 0;
  m.num_vertices = h.num_vertices;
  m.num_edges = h.num_edges;
  const uint8_t* p = data.data() + sizeof h;
  m.shard_begin.resize(static_cast<size_t>(h.num_shards) + 1);
  std::memcpy(m.shard_begin.data(), p,
              m.shard_begin.size() * sizeof(uint64_t));
  p += m.shard_begin.size() * sizeof(uint64_t);
  m.degrees.resize(h.num_vertices);
  std::memcpy(m.degrees.data(), p, m.degrees.size() * sizeof(uint32_t));
  p += m.degrees.size() * sizeof(uint32_t);
  m.new_to_old.resize(h.num_vertices);
  std::memcpy(m.new_to_old.data(), p, m.new_to_old.size() * sizeof(VertexId));

  if (m.shard_begin.front() != 0 || m.shard_begin.back() != h.num_vertices) {
    return Status::Corruption(
        "manifest decode: shard boundaries must run from 0 to the vertex "
        "count");
  }
  for (size_t s = 0; s + 1 < m.shard_begin.size(); ++s) {
    if (m.shard_begin[s] > m.shard_begin[s + 1]) {
      return Status::Corruption(
          "manifest decode: shard boundaries not ascending at shard " +
          std::to_string(s));
    }
  }
  uint64_t degree_sum = 0;
  for (uint32_t d : m.degrees) degree_sum += d;
  if (degree_sum != h.num_edges) {
    return Status::Corruption("manifest decode: degree sum " +
                              std::to_string(degree_sum) +
                              " does not match the header's edge count " +
                              std::to_string(h.num_edges));
  }
  std::vector<bool> seen(h.num_vertices, false);
  for (VertexId old : m.new_to_old) {
    if (old >= h.num_vertices || seen[old]) {
      return Status::Corruption(
          "manifest decode: new_to_old is not a permutation of the vertex "
          "ids");
    }
    seen[old] = true;
  }
  return m;
}

}  // namespace ubigraph::shard
