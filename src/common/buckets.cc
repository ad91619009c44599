#include "common/buckets.h"

#include <bit>

namespace ubigraph {

BucketStructure::BucketStructure(uint64_t span)
    : slots_(std::bit_ceil(std::max<uint64_t>(span, 1))),
      occupied_((slots_.size() + 63) / 64, 0),
      mask_(slots_.size() - 1) {}

uint64_t BucketStructure::PopNextBucket(std::vector<VertexId>* out) {
  if (live_ == 0) return kNoBucket;
  // Walk the bitmap from the cursor's slot around the ring. Every live entry
  // lies within the span above the cursor, so ring order from the cursor's
  // slot is bucket order, and some bit is set.
  const uint64_t start = cursor_ & mask_;
  uint64_t word = start / 64;
  uint64_t bits = occupied_[word] & (~uint64_t{0} << (start % 64));
  while (bits == 0) {
    word = word + 1 == occupied_.size() ? 0 : word + 1;
    bits = occupied_[word];
  }
  const uint64_t s = word * 64 + static_cast<uint64_t>(std::countr_zero(bits));
  cursor_ += (s - start) & mask_;
  occupied_[word] &= ~(uint64_t{1} << (s % 64));
  out->clear();
  out->swap(slots_[s]);
  live_ -= out->size();
  ++stats_.buckets_popped;
  stats_.items_popped += out->size();
  return cursor_;
}

}  // namespace ubigraph
