#include "io/edge_list_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>
#include <vector>

#include "common/file.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "io/parse_metrics.h"
#include "io/text_scan.h"

namespace ubigraph::io {

namespace {

using internal::LineScanner;

/// Initial size of the file path's per-slot read window.
constexpr size_t kWindowBytes = size_t{1} << 16;
/// Read size once a chunk's last line runs past the chunk's end.
constexpr uint64_t kTailBytes = uint64_t{1} << 12;

/// What a line holds: an edge, no record, or the error LineError names.
enum class Line : uint8_t { kSkip, kEdge, kBadFields, kBadId, kBadWeight };

/// Whether a line whose first non-space byte is c is a comment.
bool OpensComment(char c) { return c == '#'; }

/// Blank lines and comments hold no record.
bool HoldsRecord(std::string_view line) {
  const auto it = std::find_if_not(line.begin(), line.end(), internal::IsSpace);
  return it != line.end() && !OpensComment(*it);
}

/// Whether a line that starts with byte c may hold no record. Every line
/// HoldsRecord rejects starts with whitespace or '#'; the test also admits
/// the other control bytes, so that it is two compares in byte lanes.
bool MayLackRecord(char c) { return (static_cast<uint8_t>(c) <= ' ') | OpensComment(c); }

/// The edge-list grammar, one line: "src dst [weight]". Inlined into each
/// loop that calls it: as a call it slowed the single pass by ~10%.
[[gnu::always_inline]] inline Line ParseLine(std::string_view line, Edge* edge) {
  std::string_view f[3];
  const size_t n = internal::SplitFields(line, f, 3);
  if (n == 0 || OpensComment(f[0][0])) return Line::kSkip;  // HoldsRecord's test
  if (n < 2 || n > 3) return Line::kBadFields;
  int64_t src = 0, dst = 0;
  if (!internal::ParseIntField(f[0], &src) || !internal::ParseIntField(f[1], &dst) ||
      src < 0 || dst < 0 || src > UINT32_MAX || dst > UINT32_MAX) {
    return Line::kBadId;
  }
  double weight = 1.0;
  if (n == 3 && !internal::ParseDoubleField(f[2], &weight)) return Line::kBadWeight;
  *edge = Edge{static_cast<VertexId>(src), static_cast<VertexId>(dst), weight};
  return Line::kEdge;
}

Status LineError(size_t line_no, Line kind) {
  return internal::ParseErrorAt(line_no,
                                kind == Line::kBadFields ? "expected 'src dst [weight]'"
                                : kind == Line::kBadId   ? "invalid vertex id"
                                                         : "invalid weight");
}

/// One pass on the caller, for inputs under kParseChunkBytes.
Result<EdgeList> ParseSerial(std::string_view text) {
  EdgeList el;
  // Reserve from the bytes present: at most one edge per line.
  el.Reserve(internal::CountNewlines(text) + 1);
  LineScanner lines(text);
  std::string_view line;
  Edge e;
  while (lines.Next(&line)) {
    const Line kind = ParseLine(line, &e);
    if (kind == Line::kEdge) {
      el.Add(e.src, e.dst, e.weight);
    } else if (kind != Line::kSkip) {
      return LineError(lines.line_no(), kind);
    }
  }
  return el;
}

/// Chunk c of the two-pass parse owns the lines that start in its byte
/// range [c, c + 1) * kParseChunkBytes. Pass 1 counts them and their
/// records; pass 2 parses the records into edge slots [first, first +
/// records).
struct Chunk {
  uint64_t lines = 0;
  uint64_t records = 0;
  uint64_t first = 0;
  uint64_t parsed = 0;    // records pass 2 found, stopping one past `records`
  size_t error_line = 0;  // the first bad line, numbered within the chunk
  Line error = Line::kSkip;
  VertexId max_id = 0;
  bool read_failed = false;
};

/// Pass 1 over a chunk, given as a source of runs of whole lines. A line
/// starts at a run's first byte and after each '\n' but the run's last.
/// Line starts are counted in blocks of kCountBlock bytes, a multiple of 16
/// that byte counters hold, so that the compiler counts full blocks in byte
/// lanes (at -O2 too: their trip count is constant). Only the lines that
/// MayLackRecord meet HoldsRecord.
template <typename Runs>
void CountRecords(Runs& runs, Chunk* chunk) {
  constexpr size_t kCountBlock = 240;
  uint64_t lines = 0, records = 0;
  for (std::string_view run; runs.Next(&run);) {
    const char* p = run.data();
    const size_t n = run.size();  // runs are never empty
    auto holds = [&](size_t j) {  // of the line that starts at byte j
      if (!MayLackRecord(p[j])) return true;
      const void* nl = std::memchr(p + j, '\n', n - j);
      const size_t len = nl != nullptr ? static_cast<const char*>(nl) - (p + j) : n - j;
      return HoldsRecord(std::string_view(p + j, len));
    };
    ++lines;
    records += holds(0);
    for (size_t b = 1; b < n; b += kCountBlock) {
      uint8_t starts = 0, suspects = 0;
      auto count = [&](size_t len) {
        for (size_t j = b; j < b + len; ++j) {
          const uint8_t start = p[j - 1] == '\n';
          starts += start;
          suspects += start & MayLackRecord(p[j]);
        }
      };
      const size_t len = std::min(n - b, kCountBlock);
      if (len == kCountBlock) {
        count(kCountBlock);
      } else {
        count(len);
      }
      lines += starts;
      records += starts - suspects;
      for (size_t j = b; suspects != 0; ++j) {
        if (p[j - 1] == '\n' && MayLackRecord(p[j])) {
          records += holds(j);
          --suspects;
        }
      }
    }
  }
  chunk->lines = lines;
  chunk->records = records;
}

/// Pass 2 over a chunk. Stops at the first bad line, or at a record pass 1
/// did not count (the file changed), so no write leaves the chunk's slots.
template <typename Runs>
void ParseRecords(Runs& runs, Edge* slots, Chunk* chunk) {
  uint64_t lines = 0, parsed = 0;
  VertexId max_id = 0;
  // Parses one run; false once the chunk must stop.
  auto parse_run = [&](std::string_view run) {
    LineScanner scan(run);
    Edge e;
    for (std::string_view line; scan.Next(&line);) {
      const Line kind = ParseLine(line, &e);
      if (kind == Line::kSkip) continue;
      if (kind != Line::kEdge) {
        chunk->error = kind;
        chunk->error_line = lines + scan.line_no();
        return false;
      }
      if (parsed == chunk->records) {
        ++parsed;
        return false;
      }
      slots[parsed++] = e;
      max_id = std::max({max_id, e.src, e.dst});
    }
    lines += scan.line_no();
    return true;
  };
  for (std::string_view run; runs.Next(&run) && parse_run(run);) {
  }
  chunk->parsed = parsed;
  chunk->max_id = max_id;
}

/// Slots of the fork that parses `chunks` chunks: one per team thread, and
/// no more than there are chunks.
unsigned ChunkSlots(uint64_t chunks) {
  return static_cast<unsigned>(std::min<uint64_t>(TeamSize(), chunks));
}

/// Runs fn(chunk, slot) for chunks [0, chunks), claimed in order by the
/// ChunkSlots(chunks) slots of one fork.
template <typename Fn>
void ForEachChunk(uint64_t chunks, Fn fn) {
  std::atomic<uint64_t> next{0};
  ForkJoin(ChunkSlots(chunks), [&](unsigned slot) {
    for (uint64_t c; (c = next.fetch_add(1, std::memory_order_relaxed)) < chunks;) {
      fn(c, slot);
    }
  });
}

Status ReadFailed(const std::string& path) {
  return Status::IOError("read failed on " + path);
}

/// The two-pass parse of `bytes` of input on the team. `runs_of(c, slot,
/// &read_failed)` returns chunk c's lines as a source of runs of whole
/// lines. The result and every Status match ParseSerial's: the earliest
/// chunk with an error wins, at its line plus the lines of the chunks
/// before it.
template <typename RunsFn>
Result<EdgeList> ParseChunked(uint64_t bytes, RunsFn runs_of, const std::string& path) {
  std::vector<Chunk> chunks(NumChunks(0, bytes, kParseChunkBytes));
  ForEachChunk(chunks.size(), [&](uint64_t c, unsigned slot) {
    auto runs = runs_of(c, slot, &chunks[c].read_failed);
    CountRecords(runs, &chunks[c]);
  });
  uint64_t total = 0;
  for (Chunk& c : chunks) {
    if (c.read_failed) return ReadFailed(path);
    c.first = total;
    total += c.records;
  }
  // Sized once on the caller (see DESIGN.md "Load path"); each chunk fills
  // its own slots.
  std::vector<Edge> edges(total);
  ForEachChunk(chunks.size(), [&](uint64_t c, unsigned slot) {
    auto runs = runs_of(c, slot, &chunks[c].read_failed);
    ParseRecords(runs, edges.data() + chunks[c].first, &chunks[c]);
  });
  uint64_t line_base = 0;
  VertexId max_id = 0;
  for (const Chunk& c : chunks) {
    if (c.read_failed) return ReadFailed(path);
    if (c.error != Line::kSkip) return LineError(line_base + c.error_line, c.error);
    if (c.parsed != c.records) return Status::IOError(path + " changed while it was read");
    line_base += c.lines;
    max_id = std::max(max_id, c.max_id);
  }
  // EdgeList::Add wraps the vertex count to 0 at id 2^32 - 1 and a later,
  // smaller id sets it again; only below that id is its fold max + 1.
  VertexId n = total == 0 ? 0 : max_id + 1;
  if (max_id == kInvalidVertex) {
    n = 0;
    for (const Edge& e : edges) {
      const VertexId hi = std::max(e.src, e.dst);
      if (hi >= n) n = hi + 1;
    }
  }
  return EdgeList(n, std::move(edges));
}

/// The lines of in-memory text that start in chunk c's byte range, as one
/// run.
class TextChunk {
 public:
  TextChunk(std::string_view text, uint64_t c) {
    const char* base = text.data();
    const uint64_t begin = c * kParseChunkBytes;
    const uint64_t end = std::min<uint64_t>(begin + kParseChunkBytes, text.size());
    uint64_t start = 0;
    if (c > 0) {
      // A line starts in [begin, end) after a '\n' in [begin - 1, end - 1).
      const void* nl = std::memchr(base + begin - 1, '\n', end - begin);
      if (nl == nullptr) return;
      start = static_cast<const char*>(nl) - base + 1;
    }
    // The last line owned holds byte end - 1.
    const void* nl = std::memchr(base + end - 1, '\n', text.size() - end + 1);
    const uint64_t stop =
        nl == nullptr ? text.size() : static_cast<const char*>(nl) - base + 1;
    run_ = text.substr(start, stop - start);
  }

  bool Next(std::string_view* run) {
    *run = std::exchange(run_, {});
    return !run->empty();
  }

 private:
  std::string_view run_;
};

/// TextChunk's lines of a file, read with pread through a reusable window
/// and yielded as runs of whole lines. The window grows only to hold a line
/// longer than itself. A failed or short read sets *failed and ends the
/// runs.
class FileChunk {
 public:
  FileChunk(int fd, uint64_t size, uint64_t c, std::vector<char>* window, bool* failed)
      : fd_(fd),
        size_(size),
        end_(std::min<uint64_t>((c + 1) * kParseChunkBytes, size)),
        next_(c == 0 ? 0 : c * kParseChunkBytes - 1),
        window_(*window),
        failed_(failed) {
    if (c > 0) SkipToFirstLine();
  }

  bool Next(std::string_view* run) {
    while (!*failed_ && LineStart() < end_) {
      const char* base = window_.data();
      // The chunk's last line ends at the first '\n' at or after end_ - 1;
      // before the window reaches it, a run ends at the window's last '\n'.
      const void* nl = nullptr;
      if (next_ >= end_) {
        const size_t from = lo_ + (end_ - 1 - LineStart());
        nl = std::memchr(base + from, '\n', hi_ - from);
      }
      if (nl == nullptr) nl = memrchr(base + lo_, '\n', hi_ - lo_);
      size_t cut = nl != nullptr ? static_cast<const char*>(nl) - base + 1 : 0;
      if (cut == 0 && next_ == size_) cut = hi_;  // the file's last line lacks a '\n'
      if (cut != 0) {
        *run = std::string_view(base + lo_, cut - lo_);
        lo_ = cut;
        return true;
      }
      Refill();
    }
    return false;
  }

 private:
  /// File offset of the first unconsumed byte.
  uint64_t LineStart() const { return next_ - (hi_ - lo_); }

  /// Consumes through the first '\n' at or after the chunk's begin - 1; when
  /// none lies before end - 1, the chunk owns no line.
  void SkipToFirstLine() {
    while (!*failed_) {
      const char* p = window_.data() + lo_;
      const auto* nl = static_cast<const char*>(std::memchr(p, '\n', hi_ - lo_));
      if (nl != nullptr) {
        lo_ += nl - p + 1;
        return;
      }
      lo_ = hi_;
      if (next_ == end_) return;  // LineStart() == end_: no line
      Refill();
    }
  }

  /// Moves the unconsumed bytes to the window's front, doubles the window if
  /// they fill it, and reads more: up to the chunk's end, then kTailBytes at
  /// a time for the line that runs past it. Requires next_ < size_.
  void Refill() {
    if (lo_ > 0) {
      std::memmove(window_.data(), window_.data() + lo_, hi_ - lo_);
      hi_ -= lo_;
      lo_ = 0;
    }
    if (hi_ == window_.size()) window_.resize(2 * window_.size());
    const uint64_t stop = next_ < end_ ? end_ : std::min(size_, next_ + kTailBytes);
    const size_t want = std::min<uint64_t>(window_.size() - hi_, stop - next_);
    ssize_t got;
    do {
      got = ::pread(fd_, window_.data() + hi_, want, static_cast<off_t>(next_));
    } while (got < 0 && errno == EINTR);
    if (got <= 0) {
      *failed_ = true;
      return;
    }
    hi_ += static_cast<size_t>(got);
    next_ += static_cast<uint64_t>(got);
  }

  const int fd_;
  const uint64_t size_;
  const uint64_t end_;
  uint64_t next_;  // file offset of the next byte to read
  std::vector<char>& window_;
  size_t lo_ = 0, hi_ = 0;  // the unconsumed bytes are window_[lo_, hi_)
  bool* failed_;
};

/// Closes a file descriptor on scope exit.
struct FdCloser {
  int fd;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

Result<EdgeList> ParseEdgeListText(const std::string& text) {
  Result<EdgeList> result =
      text.size() < kParseChunkBytes
          ? ParseSerial(text)
          : ParseChunked(
                text.size(),
                [&text](uint64_t c, unsigned, bool*) { return TextChunk(text, c); }, {});
  internal::FlushParseStats("edge_list", text.size(), result.ok(),
                            result.ok() ? result->num_edges() : 0);
  return result;
}

std::string WriteEdgeListText(const EdgeList& edges) {
  std::string out;
  out += "# ubigraph edge list: " + std::to_string(edges.num_vertices()) +
         " vertices, " + std::to_string(edges.num_edges()) + " edges\n";
  for (const Edge& e : edges.edges()) {
    out += std::to_string(e.src);
    out += ' ';
    out += std::to_string(e.dst);
    if (e.weight != 1.0) {
      out += ' ';
      out += FormatDouble(e.weight, 17);
    }
    out += '\n';
  }
  return out;
}

Result<std::string> ReadFileToString(const std::string& path) {
  return ReadWholeFile(path);
}

Status WriteStringToFile(const std::string& content, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<EdgeList> ReadEdgeListFile(const std::string& path) {
  // Regular files of at least one chunk stream through per-slot windows;
  // everything else (small files, pipes, procfs) is read whole.
  const FdCloser file{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  struct stat st {};
  if (file.fd < 0 || ::fstat(file.fd, &st) != 0 || !S_ISREG(st.st_mode) ||
      static_cast<uint64_t>(st.st_size) < kParseChunkBytes) {
    UG_ASSIGN_OR_RETURN(std::string text, ReadFileToString(path));
    return ParseEdgeListText(text);
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  // Allocated on the caller, as the edge array is.
  std::vector<std::vector<char>> windows(ChunkSlots(NumChunks(0, size, kParseChunkBytes)),
                                         std::vector<char>(kWindowBytes));
  Result<EdgeList> result = ParseChunked(
      size,
      [&](uint64_t c, unsigned slot, bool* failed) {
        return FileChunk(file.fd, size, c, &windows[slot], failed);
      },
      path);
  if (result.ok() || result.status().code() != StatusCode::kIOError) {
    internal::FlushParseStats("edge_list", size, result.ok(),
                              result.ok() ? result->num_edges() : 0);
  }
  return result;
}

Status WriteEdgeListFile(const EdgeList& edges, const std::string& path) {
  return WriteStringToFile(WriteEdgeListText(edges), path);
}

}  // namespace ubigraph::io
