// Priority buckets for delta-stepping SSSP, which buckets vertices by
// floor(dist / delta). The structure is a bounded ring of reusable slots:
// the caller promises that every live entry lies within `span` buckets of
// the cursor, so bucket b lives in slot b mod span and memory is bounded by
// the live entries, never by the highest bucket index. An occupancy bitmap
// over the ring finds the next non-empty bucket in span / 64 word reads, so
// gaps between occupied buckets cost nothing per empty bucket.
//
// The structure is deliberately *lazy*: entries are never deleted or moved
// when a vertex's priority improves — the kernel simply inserts a fresh
// entry into the better bucket and filters stale entries with a recheck when
// they are popped ("relaxed-write + recheck"), which keeps insertion a plain
// vector push.
//
// The extraction cursor is monotone: PopNextBucket only moves forward, and
// re-pops the cursor's own bucket while entries keep landing in it. Inserts
// targeting a bucket below the cursor are clamped *to* the cursor.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/edge_list.h"

namespace ubigraph {

/// Cheap local tallies the owning kernel folds into the obs registry at the
/// end of a run (flush-at-end discipline; see DESIGN.md "Observability").
struct BucketStats {
  uint64_t items_inserted = 0;  // entries added, including re-insertions
  uint64_t items_popped = 0;    // entries handed back, including stale ones
  uint64_t buckets_popped = 0;  // non-empty pops (re-pops included)
  uint64_t max_bucket = 0;      // highest bucket index ever populated
};

/// An entry destined for bucket `first` holding vertex `second`. Parallel
/// kernels accumulate these in per-chunk buffers and merge via InsertBatch.
using BucketItem = std::pair<uint64_t, VertexId>;

class BucketStructure {
 public:
  static constexpr uint64_t kNoBucket = UINT64_MAX;

  /// A ring for entries within `span` (>= 1) buckets of the cursor: every
  /// Insert must target a bucket below current_bucket() + span. The ring
  /// rounds `span` up to a power of two.
  explicit BucketStructure(uint64_t span);

  bool empty() const { return live_ == 0; }
  uint64_t size() const { return live_; }
  /// The bucket the cursor points at (the one PopNextBucket tries first).
  uint64_t current_bucket() const { return cursor_; }
  const BucketStats& stats() const { return stats_; }

  /// Inserts `v` into bucket `b` (clamped up to the cursor). Never displaces
  /// older entries for `v`; the caller's pop-time recheck skips them.
  void Insert(uint64_t b, VertexId v) {
    b = std::max(b, cursor_);
    assert(b - cursor_ <= mask_ && "insert beyond the ring's span");
    const uint64_t s = b & mask_;
    slots_[s].push_back(v);
    occupied_[s / 64] |= uint64_t{1} << (s % 64);
    ++live_;
    ++stats_.items_inserted;
    stats_.max_bucket = std::max(stats_.max_bucket, b);
  }

  /// Appends one chunk's insertion buffer. Callers merge buffers in ascending
  /// chunk index, so each bucket lists its entries in chunk order.
  void InsertBatch(std::span<const BucketItem> items) {
    for (const auto& [b, v] : items) Insert(b, v);
  }

  /// Drains the lowest non-empty bucket at or above the cursor into *out
  /// (replacing its contents), moves the cursor there and returns its index,
  /// or kNoBucket when the structure is empty. Entries are in insertion
  /// order and may be stale.
  uint64_t PopNextBucket(std::vector<VertexId>* out);

 private:
  std::vector<std::vector<VertexId>> slots_;  // bucket b in slots_[b & mask_]
  std::vector<uint64_t> occupied_;  // bit s set iff slots_[s] is non-empty
  uint64_t mask_ = 0;
  uint64_t cursor_ = 0;
  uint64_t live_ = 0;  // entries not yet handed back
  BucketStats stats_;
};

}  // namespace ubigraph
