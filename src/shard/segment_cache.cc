#include "shard/segment_cache.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>

#include "common/file.h"
#include "common/status.h"
#include "obs/metrics.h"

namespace ubigraph::shard {

struct SegmentCache::Counters {
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* evictions;
  obs::Counter* bytes_loaded;
  obs::Counter* over_budget;

  static const Counters* Get() {
    static const Counters c = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      return Counters{reg.GetCounter("shard.cache.hits"),
                      reg.GetCounter("shard.cache.misses"),
                      reg.GetCounter("shard.cache.evictions"),
                      reg.GetCounter("shard.cache.bytes_loaded"),
                      reg.GetCounter("shard.cache.over_budget")};
    }();
    return &c;
  }
};

namespace {

/// Validates a file's leading SegmentHeader and size without touching the
/// payload, so open fails fast on wrong-format files before any mmap.
Status ProbeHeader(const std::string& path, uint32_t expected_shard,
                   uint64_t* size_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("segment cache: cannot open " + path);
  }
  char raw[sizeof(SegmentHeader)];
  in.read(raw, sizeof raw);
  if (in.gcount() != static_cast<std::streamsize>(sizeof raw)) {
    return Status::Corruption("segment cache: " + path +
                              " is shorter than a segment header");
  }
  SegmentHeader h;
  std::memcpy(&h, raw, sizeof h);
  if (std::memcmp(h.magic, kSegmentMagic, sizeof h.magic) != 0) {
    return Status::Invalid("segment cache: " + path +
                           " has bad magic — not a UGSG segment");
  }
  if (h.version != kSegmentFormatVersion) {
    return Status::Invalid(
        "segment cache: " + path + " uses format version " +
        std::to_string(h.version) + "; reader understands " +
        std::to_string(kSegmentFormatVersion));
  }
  if (h.shard_id != expected_shard) {
    return Status::Invalid("segment cache: " + path + " holds shard " +
                           std::to_string(h.shard_id) + ", expected " +
                           std::to_string(expected_shard));
  }
  in.seekg(0, std::ios::end);
  const uint64_t size = static_cast<uint64_t>(in.tellg());
  if (size != sizeof(SegmentHeader) + h.payload_bytes + sizeof(uint32_t)) {
    return Status::Corruption(
        "segment cache: " + path + " is " + std::to_string(size) +
        " bytes; its header implies " +
        std::to_string(sizeof(SegmentHeader) + h.payload_bytes +
                       sizeof(uint32_t)));
  }
  *size_out = size;
  return Status::OK();
}

}  // namespace

SegmentCache::Pin& SegmentCache::Pin::operator=(Pin&& o) noexcept {
  if (this != &o) {
    Release();
    cache_ = o.cache_;
    shard_ = o.shard_;
    view_ = o.view_;
    o.cache_ = nullptr;
  }
  return *this;
}

void SegmentCache::Pin::Release() {
  if (cache_ != nullptr) {
    cache_->Unpin(shard_);
    cache_ = nullptr;
  }
}

SegmentCache::~SegmentCache() {
  for (uint32_t s = 0; s < entries_.size(); ++s) {
    if (entries_[s].map_addr != nullptr) EvictLocked(s);
  }
}

Result<std::unique_ptr<SegmentCache>> SegmentCache::FromBlobs(
    std::vector<std::string> blobs) {
  std::unique_ptr<SegmentCache> cache(new SegmentCache());
  cache->counters_ = Counters::Get();
  cache->entries_.resize(blobs.size());
  for (uint32_t s = 0; s < blobs.size(); ++s) {
    Entry& e = cache->entries_[s];
    e.blob = std::move(blobs[s]);
    e.size = e.blob.size();
    UG_ASSIGN_OR_RETURN(
        e.view,
        DecodeSegment({reinterpret_cast<const uint8_t*>(e.blob.data()),
                       e.blob.size()},
                      /*verify=*/true));
    if (e.view.shard_id != s) {
      return Status::Invalid("segment cache: blob " + std::to_string(s) +
                             " holds shard " + std::to_string(e.view.shard_id));
    }
    e.loaded = true;
    e.verified = true;
    cache->total_bytes_ += e.size;
  }
  cache->resident_bytes_ = cache->total_bytes_;
  cache->peak_resident_bytes_ = cache->total_bytes_;
  return cache;
}

Result<std::unique_ptr<SegmentCache>> SegmentCache::FromFiles(
    std::vector<std::string> paths, const Options& options) {
  std::unique_ptr<SegmentCache> cache(new SegmentCache());
  cache->counters_ = Counters::Get();
  cache->options_ = options;
  cache->entries_.resize(paths.size());
  for (uint32_t s = 0; s < paths.size(); ++s) {
    Entry& e = cache->entries_[s];
    e.path = std::move(paths[s]);
    UG_RETURN_NOT_OK(ProbeHeader(e.path, s, &e.size));
    cache->total_bytes_ += e.size;
  }
  if (options.storage == SegmentStorage::kResident) {
    for (uint32_t s = 0; s < cache->entries_.size(); ++s) {
      UG_RETURN_NOT_OK(cache->LoadLocked(s));
    }
  }
  return cache;
}

Result<SegmentCache::Pin> SegmentCache::Acquire(uint32_t shard) {
  if (shard >= entries_.size()) {
    return Status::OutOfRange("segment cache: shard " + std::to_string(shard) +
                              " of " + std::to_string(entries_.size()));
  }
  const bool record = obs::Enabled();
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = entries_[shard];
  if (e.loaded) {
    if (record) counters_->hits->Increment();
  } else {
    if (record) counters_->misses->Increment();
    // Make room first: evict (per the header's sweep-aware policy) until
    // the new load fits the budget or nothing evictable remains (then load
    // anyway — a stalled kernel is worse than a transient overshoot).
    while (options_.budget_bytes != 0 &&
           resident_bytes_ + e.size > options_.budget_bytes) {
      uint32_t lowest_pinned = num_segments();
      for (uint32_t s = 0; s < num_segments(); ++s) {
        if (entries_[s].pins > 0) {
          lowest_pinned = s;
          break;
        }
      }
      auto highest_evictable_below = [&](uint32_t bound) {
        for (uint32_t s = bound; s-- > 0;) {
          const Entry& c = entries_[s];
          if (c.loaded && c.pins == 0 && c.map_addr != nullptr) return s;
        }
        return std::numeric_limits<uint32_t>::max();
      };
      uint32_t victim = highest_evictable_below(lowest_pinned);
      if (victim == std::numeric_limits<uint32_t>::max()) {
        victim = highest_evictable_below(num_segments());
      }
      if (victim == std::numeric_limits<uint32_t>::max()) {
        if (record) counters_->over_budget->Increment();
        break;
      }
      EvictLocked(victim);
      if (record) counters_->evictions->Increment();
    }
    UG_RETURN_NOT_OK(LoadLocked(shard));
    if (record) {
      counters_->bytes_loaded->Add(static_cast<int64_t>(e.size));
    }
  }
  ++e.pins;
  return Pin(this, shard, &e.view);
}

Status SegmentCache::LoadLocked(uint32_t shard) {
  Entry& e = entries_[shard];
  const uint8_t* data = nullptr;
  if (options_.storage == SegmentStorage::kResident) {
    UG_ASSIGN_OR_RETURN(e.blob, ReadWholeFile(e.path, "segment cache: "));
    data = reinterpret_cast<const uint8_t*>(e.blob.data());
  } else {
    const int fd = ::open(e.path.c_str(), O_RDONLY);
    if (fd < 0) {
      return Status::IOError("segment cache: open(" + e.path +
                             "): " + std::strerror(errno));
    }
    void* addr = ::mmap(nullptr, e.size, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (addr == MAP_FAILED) {
      return Status::IOError("segment cache: mmap(" + e.path +
                             "): " + std::strerror(errno));
    }
    e.map_addr = addr;
    data = static_cast<const uint8_t*>(addr);
  }
  Result<SegmentView> view = DecodeSegment({data, e.size}, !e.verified);
  if (!view.ok()) {
    EvictLocked(shard);
    return view.status();
  }
  e.view = std::move(view).ValueUnsafe();
  e.loaded = true;
  e.verified = true;
  resident_bytes_ += e.size;
  if (resident_bytes_ > peak_resident_bytes_) {
    peak_resident_bytes_ = resident_bytes_;
  }
  return Status::OK();
}

void SegmentCache::EvictLocked(uint32_t shard) {
  Entry& e = entries_[shard];
  if (e.map_addr != nullptr) {
    ::munmap(e.map_addr, e.size);
    e.map_addr = nullptr;
  }
  // File-backed entries may hold the file contents in a heap buffer (the
  // kResident path); release it so a failed decode doesn't retain the whole
  // file in an entry marked unloaded. Blob-backed entries (FromBlobs) own
  // their bytes for the cache's lifetime and are never evicted.
  if (!e.path.empty()) {
    e.blob = std::string{};
  }
  if (e.loaded) {
    e.loaded = false;
    resident_bytes_ -= e.size;
  }
  e.view = SegmentView{};
}

void SegmentCache::Unpin(uint32_t shard) {
  std::lock_guard<std::mutex> lock(mu_);
  --entries_[shard].pins;
}

Result<std::span<const uint8_t>> SegmentCache::SerializedBytes(
    uint32_t shard) const {
  if (shard >= entries_.size()) {
    return Status::OutOfRange("segment cache: shard " + std::to_string(shard) +
                              " of " + std::to_string(entries_.size()));
  }
  const Entry& e = entries_[shard];
  if (!e.path.empty()) {
    return Status::NotImplemented(
        "segment cache: SerializedBytes is for in-memory (Build) caches; "
        "file-backed segments already live on disk");
  }
  return std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(e.blob.data()), e.blob.size());
}

uint64_t SegmentCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

uint64_t SegmentCache::peak_segment_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_resident_bytes_;
}

}  // namespace ubigraph::shard
