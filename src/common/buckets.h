// Open-bucket priority structure (Julienne-style) for the priority-ordered
// kernels: delta-stepping SSSP buckets vertices by floor(dist / delta).
// The structure is deliberately *lazy*: entries are never deleted or
// moved when a vertex's priority improves — the kernel simply inserts a fresh
// entry into the better bucket and filters stale entries with a recheck when
// they are popped ("relaxed-write + recheck"). This keeps insertion a plain
// vector push and makes the contents a pure function of the insertion
// sequence, which the kernels keep deterministic by merging per-chunk
// insertion buffers in ascending chunk order (the same discipline as the
// frontier builders and ParallelReduce).
//
// The extraction cursor is monotone: PopNextBucket only moves forward.
// Inserts targeting a bucket below the cursor are clamped *to* the cursor.
#pragma once

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
  uint64_t buckets_popped = 0;  // non-empty pops (sub-rounds included)
  uint64_t max_bucket = 0;      // highest bucket index ever populated
};

/// An entry destined for bucket `first` holding vertex `second`. Kernels
/// accumulate these in per-chunk buffers and merge via InsertBatch.
using BucketItem = std::pair<uint64_t, VertexId>;

class BucketStructure {
 public:
  static constexpr uint64_t kNoBucket = UINT64_MAX;

  bool empty() const { return live_ == 0; }
  uint64_t size() const { return live_; }
  /// The bucket the cursor points at (the one PopSame would re-pop).
  uint64_t current_bucket() const { return cursor_; }
  const BucketStats& stats() const { return stats_; }

  /// Inserts `v` into bucket `b` (clamped up to the cursor). Never displaces
  /// older entries for `v`; the caller's pop-time recheck skips them.
  void Insert(uint64_t b, VertexId v);

  /// Appends one chunk's insertion buffer. Callers merge buffers in ascending
  /// chunk index so the structure's contents — and therefore pop order — are
  /// independent of which worker produced which buffer.
  void InsertBatch(std::span<const BucketItem> items);

  /// Drains the lowest non-empty bucket at or above the cursor into *out
  /// (replacing its contents) and returns its index, or kNoBucket when the
  /// structure is empty. Entries are in insertion order and may be stale.
  uint64_t PopNextBucket(std::vector<VertexId>* out);

  /// Re-drains bucket `b` if entries landed in it since it was popped (the
  /// within-bucket sub-round of delta-stepping light relaxations). Returns
  /// false — leaving *out untouched — once bucket `b` has settled and the
  /// caller should move on.
  bool PopSame(uint64_t b, std::vector<VertexId>* out);

 private:
  std::vector<std::vector<VertexId>> buckets_;
  uint64_t cursor_ = 0;
  uint64_t live_ = 0;  // entries not yet handed back
  BucketStats stats_;
};

}  // namespace ubigraph
