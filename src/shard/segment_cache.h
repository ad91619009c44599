// Byte-budgeted cache of decoded segment views. Three backings share one
// Acquire() interface so the kernels never branch on where bytes live:
//
//   FromBlobs   — in-memory segment blobs (the Build path); always resident.
//   FromFiles + kResident — whole files read into heap buffers at open;
//                 always resident (the "RAM is big enough" path).
//   FromFiles + kMapped   — files mmap'ed lazily per Acquire under a byte
//                 budget; unpinned segments are unmapped to stay within it
//                 (the out-of-core path), scan-resistantly: see below.
//
// Eviction. Every kernel sweeps the segments in ascending shard order, its
// workers side by side, each pinning the segment it reads. Least-recently-
// used eviction evicts exactly the segment the next sweep needs first, so a
// budget of k of N segments misses all N on every sweep. The victim here is
// instead the highest-numbered unpinned segment below every pinned one —
// every running sweep has passed it and the next sweep reaches it last —
// and, when no segment lies below the pins, the highest-numbered unpinned
// one, which the running sweeps reach last. For a lone sweep that is the
// segment it just released (most-recently-used eviction), and the budget
// keeps k - 1 segments from one sweep to the next; unlike plain MRU it never
// evicts a segment that a slower worker of the same sweep has yet to read.
//
// Acquire(shard) returns an RAII Pin whose SegmentView stays valid until the
// Pin drops; pinned segments are never evicted, so a kernel can hold its
// working shard while the cache cycles others. If every loaded segment is
// pinned the cache runs over budget rather than deadlocking (counted in
// shard.cache.over_budget). The budget bounds this process's mapped segment
// bytes — the OS page cache may keep more, the standard semi-external caveat.
//
// Integrity: segment headers are probed at open (magic / version / size), and
// full verification (CRC and a strict walk of every entry and id) runs once
// per file on its first load; later re-loads after eviction repeat only the
// O(S) + word-speed structural checks (DecodeSegment), and the block scans
// check every entry and id they read.
//
// Thread safety: Acquire and Pin release are safe from any thread. Loads run
// under the cache mutex — concurrent misses serialize, which is the behavior
// a disk-bound cache wants anyway.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "shard/segment.h"

namespace ubigraph::shard {

/// Where FromFiles keeps segment bytes.
enum class SegmentStorage : uint8_t {
  kResident = 0,  ///< eager heap buffers, never evicted
  kMapped = 1,    ///< lazy mmap under the byte budget, sweep-aware eviction
};

class SegmentCache {
 public:
  struct Options {
    SegmentStorage storage = SegmentStorage::kResident;
    /// Max bytes of concurrently loaded segments (kMapped only; 0 = no
    /// limit). A budget smaller than the largest single segment still works:
    /// that segment loads over budget while pinned.
    uint64_t budget_bytes = 0;
  };

  /// Holds one segment resident while alive. Movable, not copyable.
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& o) noexcept : cache_(o.cache_), shard_(o.shard_), view_(o.view_) {
      o.cache_ = nullptr;
    }
    Pin& operator=(Pin&& o) noexcept;
    ~Pin() { Release(); }
    const SegmentView& view() const { return *view_; }

   private:
    friend class SegmentCache;
    Pin(SegmentCache* cache, uint32_t shard, const SegmentView* view)
        : cache_(cache), shard_(shard), view_(view) {}
    void Release();

    SegmentCache* cache_ = nullptr;
    uint32_t shard_ = 0;
    const SegmentView* view_ = nullptr;
  };

  SegmentCache(const SegmentCache&) = delete;
  SegmentCache& operator=(const SegmentCache&) = delete;
  ~SegmentCache();

  /// Wraps encoded in-memory segments (ordered by shard id). Each blob is
  /// decoded and fully verified up front. Heap-allocated because outstanding
  /// Pins point back into the cache.
  static Result<std::unique_ptr<SegmentCache>> FromBlobs(
      std::vector<std::string> blobs);

  /// Opens on-disk segment files (ordered by shard id). Headers are probed
  /// immediately; payload verification happens per the class comment.
  static Result<std::unique_ptr<SegmentCache>> FromFiles(
      std::vector<std::string> paths, const Options& options);

  /// Loads (if needed), pins, and returns shard's decoded view.
  Result<Pin> Acquire(uint32_t shard);

  /// Blob-backed entries only (the Build path): the serialized segment
  /// bytes, for ShardedCsr::WriteTo. File-backed caches already have files.
  Result<std::span<const uint8_t>> SerializedBytes(uint32_t shard) const;

  uint32_t num_segments() const {
    return static_cast<uint32_t>(entries_.size());
  }
  /// Sum of all segments' serialized sizes — what "fully loaded" would cost.
  uint64_t total_bytes() const { return total_bytes_; }
  uint64_t budget_bytes() const { return options_.budget_bytes; }
  uint64_t resident_bytes() const;
  /// High-water mark of resident_bytes over this cache's lifetime — the
  /// number perf_sharded reports as peak_segment_bytes. This counts SEGMENT
  /// bytes only (mapped or heap-resident adjacency); the kernels' O(V)
  /// vertex state (shard_kernels.h) is separate heap the cache cannot see.
  uint64_t peak_segment_bytes() const;

 private:
  struct Entry {
    std::string blob;   // FromBlobs source, or kResident file contents
    std::string path;   // file-backed source ("" for blobs)
    uint64_t size = 0;  // serialized bytes (blob size or file size)
    void* map_addr = nullptr;  // non-null while mmap'ed
    SegmentView view;
    bool loaded = false;
    bool verified = false;  // full CRC + entry walk already ran
    uint32_t pins = 0;
  };

  SegmentCache() = default;
  Status LoadLocked(uint32_t shard);
  void EvictLocked(uint32_t shard);
  void Unpin(uint32_t shard);

  Options options_;
  uint64_t total_bytes_ = 0;

  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  uint64_t resident_bytes_ = 0;
  uint64_t peak_resident_bytes_ = 0;

  // Handles looked up once at construction; recorded only when obs::Enabled().
  struct Counters;
  const Counters* counters_ = nullptr;
};

}  // namespace ubigraph::shard
