// On-disk CSR segment format for sharded, out-of-core execution. A graph is
// split into per-shard segments (ShardedCsr, sharded_csr.h); segment s holds
// the out-adjacency rows of shard s, split into one block per DESTINATION
// shard — a GridGraph-style 2D grid of (source shard x destination shard)
// blocks whose columns are the shards themselves — and is serialized as a
// standalone file:
//
//   [SegmentHeader, 64 bytes]
//   payload:
//     u64 block_offsets[S+1]  (byte offsets of the blocks, from 0)
//     u32 column_begin[S+1]   (block t holds the ids in
//                              [column_begin[t], column_begin[t+1]))
//     u8  blocks[]            (block t: one row entry per row with at least
//                              one id in column t, rows ascending)
//   [u32 crc32 of header + payload]
//
// A non-empty block is varint(header bytes), its entries' headers, then
// their ids in the same order. An entry header is varint(row delta) and
//   plain:      varint(count);       its ids are u32 ids[count] (global)
//   compressed: varint(byte length); its ids are LEB128 varints, the first
//               relative to column_begin[t], then ascending gaps
// The row delta is the local row of the block's first entry and the step
// from the previous entry after it, so an entry header alone says where the
// row's ids start and end: a BFS scan steps over a non-frontier row without
// decoding its ids. Headers and ids are two streams so that where the next
// header starts never waits on a load from the current one: a scan's only
// loop-carried dependence is an add.
//
// All integers little-endian; the 64-byte header keeps the directory 8-byte
// aligned, so a decoded view aliases a read buffer or an mmap'ed file
// directly (no copy, no fix-up pass). A graph-level manifest file carries
// what kernels keep resident (shard boundaries, per-vertex degrees, the
// new->old id map) under the same CRC discipline.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "graph/edge_list.h"

namespace ubigraph::shard {

inline constexpr char kSegmentMagic[4] = {'U', 'G', 'S', 'G'};
inline constexpr char kManifestMagic[4] = {'U', 'G', 'S', 'M'};
inline constexpr uint32_t kSegmentFormatVersion = 2;
inline constexpr uint32_t kManifestFormatVersion = 1;

/// How a segment stores the ids of its row entries.
enum class SegmentEncoding : uint8_t {
  /// Raw u32 ids — zero decode cost, 4 bytes per stored edge.
  kPlain = 0,
  /// LEB128 gap varints — roughly half the bytes on sorted power-law rows.
  kCompressed = 1,
};

const char* SegmentEncodingName(SegmentEncoding e);

/// Fixed-size on-disk segment header. Kept at 64 bytes so the block
/// directory that follows is 8-byte aligned in any page-aligned mapping.
struct SegmentHeader {
  char magic[4];
  uint32_t version = kSegmentFormatVersion;
  uint32_t flags = 0;  // bit 0: compressed encoding
  uint32_t shard_id = 0;
  uint32_t num_shards = 0;    // blocks per segment
  uint32_t num_vertices = 0;  // of the whole graph — bounds every id
  uint64_t vertex_begin = 0;  // global relabeled-id range [begin, end)
  uint64_t vertex_end = 0;
  uint64_t num_edges = 0;
  uint64_t payload_bytes = 0;
  uint64_t num_entries = 0;  // row entries over all blocks
};
static_assert(sizeof(SegmentHeader) == 64, "payload alignment depends on this");

inline constexpr uint32_t kSegmentFlagCompressed = 1u << 0;

namespace internal {

/// Reads one LEB128 varint of at most 5 bytes from [p, end). False if it
/// runs off the end or past 5 bytes; p is then unspecified.
inline bool ReadVarint(const uint8_t*& p, const uint8_t* end, uint64_t* out) {
  if (p < end && *p < 0x80) {
    *out = *p++;
    return true;
  }
  uint64_t x = 0;
  for (int shift = 0; shift < 35 && p < end; shift += 7) {
    const uint8_t b = *p++;
    x |= static_cast<uint64_t>(b & 0x7f) << shift;
    if (b < 0x80) {
      *out = x;
      return true;
    }
  }
  return false;
}

/// Decodes a varint known to end within 5 bytes (CountVarints vouches for
/// every varint of a loaded compressed block).
inline uint32_t DecodeVarint(const uint8_t*& p) {
  uint32_t b = *p++;
  if (b < 0x80) return b;
  uint32_t x = b & 0x7f;
  for (uint32_t shift = 7; shift < 35; shift += 7) {
    b = *p++;
    x |= (b & 0x7f) << shift;
    if (b < 0x80) break;
  }
  return x;
}

/// One unsigned compare bounds an id to its block's column [lo, lo+width).
/// An id outside it is recorded in `bad` and replaced by lo, so a kernel
/// never indexes vertex state with it; the scan then returns Corruption.
inline VertexId CheckedId(VertexId v, VertexId lo, VertexId width,
                          bool* bad) {
  if (v - lo >= width) [[unlikely]] {
    *bad = true;
    return lo;
  }
  return v;
}

}  // namespace internal

/// A row entry's ids stored raw (kPlain), as a forward range.
class PlainIds {
 public:
  class Iterator {
   public:
    Iterator(const uint8_t* p, const PlainIds* ids) : p_(p), ids_(ids) {}
    VertexId operator*() const {
      VertexId v;
      std::memcpy(&v, p_, sizeof v);
      return internal::CheckedId(v, ids_->lo_, ids_->width_, ids_->bad_);
    }
    Iterator& operator++() {
      p_ += sizeof(VertexId);
      return *this;
    }
    bool operator!=(const Iterator& o) const { return p_ != o.p_; }

   private:
    const uint8_t* p_;
    const PlainIds* ids_;
  };

  PlainIds(const uint8_t* p, const uint8_t* end, VertexId lo, VertexId width,
           bool* bad)
      : p_(p), end_(end), lo_(lo), width_(width), bad_(bad) {}
  Iterator begin() const { return {p_, this}; }
  Iterator end() const { return {end_, this}; }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  VertexId lo_, width_;
  bool* bad_;
};

/// A row entry's ids stored as gap varints (kCompressed), as a forward range.
class PackedIds {
 public:
  struct Sentinel {};
  class Iterator {
   public:
    explicit Iterator(const PackedIds* ids)
        : p_(ids->p_), ids_(ids), value_(ids->lo_) {
      ++*this;
    }
    VertexId operator*() const {
      return internal::CheckedId(value_, ids_->lo_, ids_->width_, ids_->bad_);
    }
    Iterator& operator++() {
      if (p_ < ids_->end_) {
        value_ += internal::DecodeVarint(p_);
      } else {
        done_ = true;
      }
      return *this;
    }
    bool operator!=(Sentinel) const { return !done_; }

   private:
    const uint8_t* p_;
    const PackedIds* ids_;
    VertexId value_;  // the first id decodes as its offset from lo
    bool done_ = false;
  };

  PackedIds(const uint8_t* p, const uint8_t* end, VertexId lo, VertexId width,
            bool* bad)
      : p_(p), end_(end), lo_(lo), width_(width), bad_(bad) {}
  Iterator begin() const { return Iterator(this); }
  Sentinel end() const { return {}; }

 private:
  const uint8_t* p_;
  const uint8_t* end_;
  VertexId lo_, width_;
  bool* bad_;
};

/// A decoded, zero-copy view into one segment's serialized bytes. Valid only
/// while the underlying buffer (blob or mapping) stays alive — the cache's
/// pin protocol (segment_cache.h) guarantees that for kernels.
struct SegmentView {
  uint32_t shard_id = 0;
  uint32_t num_shards = 0;
  VertexId num_vertices = 0;  // whole-graph vertex count from the header
  VertexId begin = 0;         // global relabeled-id range [begin, end)
  VertexId end = 0;
  SegmentEncoding encoding = SegmentEncoding::kPlain;
  const uint64_t* block_offsets = nullptr;  // size num_shards+1
  const VertexId* column_begin = nullptr;   // size num_shards+1
  const uint8_t* blocks = nullptr;

  VertexId count() const { return end - begin; }

  /// Calls row(u, ids) for every entry of block t, in ascending row order:
  /// u is the global source id and `ids` a forward range over the row's ids
  /// in column t, decoded lazily — a row the callback does not iterate is
  /// stepped over on its header alone. The scan trusts no entry: every
  /// header is bounds-checked and every id the callback reads is checked
  /// against the column [lo, hi) with one unsigned compare, so any block
  /// bytes return a Status rather than index out of range. The caller
  /// passes the column from shard boundaries it trusts (the kernels pass
  /// the manifest's), not from this segment's bytes. kStrict adds the
  /// checks that only full verification needs (DecodeSegment's walk):
  /// rows strictly ascending, no empty entry, compressed rows ending on a
  /// varint boundary, and headers that account for every id byte.
  template <bool kStrict = false, typename RowFn>
  Status ScanBlock(uint32_t t, VertexId lo, VertexId hi, RowFn&& row) const {
    return encoding == SegmentEncoding::kPlain
               ? Scan<kStrict, SegmentEncoding::kPlain>(t, lo, hi, row)
               : Scan<kStrict, SegmentEncoding::kCompressed>(t, lo, hi, row);
  }

 private:
  template <bool kStrict, SegmentEncoding kEncoding, typename RowFn>
  Status Scan(uint32_t t, VertexId lo, VertexId hi, RowFn& row) const {
    const uint8_t* h = blocks + block_offsets[t];
    const uint8_t* const stop = blocks + block_offsets[t + 1];
    if (h == stop) return Status::OK();
    const VertexId width = hi - lo;
    uint64_t header_bytes;
    if (lo >= hi) return BadEntry(t, "entries in an empty column");
    if (!internal::ReadVarint(h, stop, &header_bytes) ||
        header_bytes > static_cast<uint64_t>(stop - h)) {
      return BadEntry(t, "header stream runs off the block");
    }
    const uint8_t* const headers_end = h + header_bytes;
    const uint8_t* ids = headers_end;
    const VertexId first_row = begin;
    const uint64_t rows = count();
    bool bad = false;
    uint64_t r = 0;  // local row of the current entry
    for (bool first = true;; first = false) {
      uint64_t delta, len;
      if (headers_end - h >= 2 && ((h[0] | h[1]) & 0x80) == 0) {
        // The common header: two one-byte varints, read off one address.
        delta = h[0];
        len = h[1];
        h += 2;
      } else if (h == headers_end) {
        break;
      } else if (!internal::ReadVarint(h, headers_end, &delta) ||
                 !internal::ReadVarint(h, headers_end, &len)) {
        return BadEntry(t, "entry header runs off the header stream");
      }
      r += delta;
      if (r >= rows) return BadEntry(t, "row past the shard's row count");
      const uint64_t room = static_cast<uint64_t>(stop - ids);
      if constexpr (kEncoding == SegmentEncoding::kPlain) {
        if (len > room / sizeof(VertexId)) {
          return BadEntry(t, "entry's ids run off the block");
        }
        len *= sizeof(VertexId);
      } else if (len > room) {
        return BadEntry(t, "entry's ids run off the block");
      }
      if constexpr (kStrict) {
        if ((!first && delta == 0) || len == 0) {
          return BadEntry(t, "rows not strictly ascending or an empty entry");
        }
        if (kEncoding == SegmentEncoding::kCompressed &&
            (ids[len - 1] & 0x80)) {
          return BadEntry(t, "entry length ends inside a varint");
        }
      }
      const VertexId u = first_row + static_cast<VertexId>(r);
      if constexpr (kEncoding == SegmentEncoding::kPlain) {
        row(u, PlainIds(ids, ids + len, lo, width, &bad));
      } else {
        row(u, PackedIds(ids, ids + len, lo, width, &bad));
      }
      ids += len;
    }
    if (kStrict && ids != stop) {
      return BadEntry(t, "entry headers do not account for every id byte");
    }
    if (bad) return BadEntry(t, "id outside the block's destination column");
    return Status::OK();
  }

  Status BadEntry(uint32_t t, const char* what) const;
};

/// Serializes one shard's rows as a grid segment. `column_begin` holds the
/// shard boundaries (size S+1, from 0 to the vertex count); the segment's
/// rows are shard `shard_id`'s range [column_begin[shard_id],
/// column_begin[shard_id+1]). `row_offsets` are local edge offsets (size
/// rows+1, starting at 0) into `targets`. A row's ids may come in any order
/// (they are sorted while bucketed into columns; duplicates are kept).
std::string EncodeSegment(uint32_t shard_id,
                          std::span<const VertexId> column_begin,
                          std::span<const uint64_t> row_offsets,
                          std::span<const VertexId> targets,
                          SegmentEncoding encoding);

/// Counts the LEB128 varints in `bytes` — its terminator bytes, those with
/// the high bit clear — a 64-bit word at a time. Fails if any varint runs
/// longer than 5 bytes (a u32 never needs more) or the stream ends inside a
/// varint. A pass over continuation-bit masks, with no branch per byte: it
/// runs on every segment load.
Result<uint64_t> CountVarints(std::span<const uint8_t> bytes);

/// Validates and decodes a serialized segment without copying: the returned
/// view aliases `data`, which must be 8-byte aligned (heap buffers and mmap
/// pages are). Structural checks always run — magic, version, sizes, a block
/// directory that ascends from 0 and spans the payload, column boundaries
/// that ascend from 0 to the vertex count with this segment's own column
/// equal to its rows, and for compressed segments a CountVarints pass that
/// vouches for every varint and matches the terminator count to the header's
/// entries and edges. They cost O(S) plus one word-speed pass, because the
/// cache repeats them on every re-load; ScanBlock checks each entry it walks.
/// `verify` additionally checks the trailing CRC and walks every entry
/// strictly (ascending rows, headers that agree with their ids, every id in
/// its block's column, entry and edge totals) — the cache runs that once per
/// file. Hostile bytes yield a clear Status, never UB.
Result<SegmentView> DecodeSegment(std::span<const uint8_t> data, bool verify);

/// Graph-level metadata kept fully resident: what every sharded kernel needs
/// without touching a segment (O(V + S) state, no O(E) arrays).
struct ShardManifest {
  SegmentEncoding encoding = SegmentEncoding::kPlain;
  bool directed = true;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  std::vector<uint64_t> shard_begin;  // size num_shards+1, ascending
  std::vector<uint32_t> degrees;      // out-degree per relabeled id, size V
  std::vector<VertexId> new_to_old;   // relabeled id -> original id, size V
};

std::string EncodeManifest(const ShardManifest& m);
Result<ShardManifest> DecodeManifest(std::span<const uint8_t> data);

}  // namespace ubigraph::shard
