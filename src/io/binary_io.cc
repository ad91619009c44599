#include "io/binary_io.h"

#include <cstring>

#include "common/crc32.h"
#include "io/edge_list_io.h"

namespace ubigraph::io {

namespace {

constexpr char kMagic[4] = {'U', 'B', 'G', 'F'};
constexpr uint8_t kFlagWeights = 1;

template <typename T>
void AppendPod(std::string* out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out->append(buf, sizeof(T));
}

template <typename T>
bool ReadPod(const std::string& data, size_t* pos, T* out) {
  if (*pos + sizeof(T) > data.size()) return false;
  std::memcpy(out, data.data() + *pos, sizeof(T));
  *pos += sizeof(T);
  return true;
}

}  // namespace

std::string WriteBinaryGraph(const EdgeList& edges, BinaryWriteOptions options) {
  bool all_unit = true;
  for (const Edge& e : edges.edges()) {
    if (e.weight != 1.0) {
      all_unit = false;
      break;
    }
  }
  bool write_weights = !(options.elide_unit_weights && all_unit);

  std::string out;
  out.append(kMagic, 4);
  AppendPod<uint32_t>(&out, kBinaryFormatVersion);
  AppendPod<uint64_t>(&out, edges.num_vertices());
  AppendPod<uint64_t>(&out, edges.num_edges());
  AppendPod<uint8_t>(&out, write_weights ? kFlagWeights : 0);
  for (const Edge& e : edges.edges()) {
    AppendPod<uint32_t>(&out, e.src);
    AppendPod<uint32_t>(&out, e.dst);
    if (write_weights) AppendPod<double>(&out, e.weight);
  }
  AppendPod<uint32_t>(&out, Crc32(out.data(), out.size()));
  return out;
}

Result<EdgeList> ParseBinaryGraph(const std::string& data) {
  if (data.size() < 4 + 4 + 8 + 8 + 1 + 4) {
    return Status::Corruption("binary graph too short");
  }
  if (std::memcmp(data.data(), kMagic, 4) != 0) {
    return Status::Corruption("bad magic; not a ubigraph binary file");
  }
  // Verify checksum over everything but the trailing CRC.
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, data.data() + data.size() - 4, 4);
  uint32_t actual_crc = Crc32(data.data(), data.size() - 4);
  if (stored_crc != actual_crc) {
    return Status::Corruption("checksum mismatch: file corrupted");
  }

  size_t pos = 4;
  uint32_t version = 0;
  uint64_t num_vertices = 0, num_edges = 0;
  uint8_t flags = 0;
  if (!ReadPod(data, &pos, &version)) return Status::Corruption("truncated header");
  if (version != kBinaryFormatVersion) {
    return Status::Invalid("unsupported format version " + std::to_string(version));
  }
  if (!ReadPod(data, &pos, &num_vertices) || !ReadPod(data, &pos, &num_edges) ||
      !ReadPod(data, &pos, &flags)) {
    return Status::Corruption("truncated header");
  }
  if (num_vertices > UINT32_MAX) {
    return Status::Invalid("vertex count exceeds in-memory 32-bit limit");
  }
  bool has_weights = (flags & kFlagWeights) != 0;
  size_t edge_size = has_weights ? 16 : 8;
  // Compare by division: num_edges * edge_size can wrap u64 (2^60 x 16 == 0)
  // and let a lying header through to a Reserve that throws.
  const size_t payload = data.size() - pos - 4;
  if (payload % edge_size != 0 || num_edges != payload / edge_size) {
    return Status::Corruption("edge payload size mismatch");
  }

  EdgeList el(static_cast<VertexId>(num_vertices));
  el.Reserve(num_edges);
  for (uint64_t i = 0; i < num_edges; ++i) {
    uint32_t src = 0, dst = 0;
    double weight = 1.0;
    ReadPod(data, &pos, &src);
    ReadPod(data, &pos, &dst);
    if (has_weights) ReadPod(data, &pos, &weight);
    if (src >= num_vertices || dst >= num_vertices) {
      return Status::Corruption("edge endpoint out of declared range");
    }
    el.Add(src, dst, weight);
  }
  el.EnsureVertices(static_cast<VertexId>(num_vertices));
  return el;
}

Result<EdgeList> ReadBinaryFile(const std::string& path) {
  UG_ASSIGN_OR_RETURN(std::string data, ReadFileToString(path));
  return ParseBinaryGraph(data);
}

Status WriteBinaryFile(const EdgeList& edges, const std::string& path,
                       BinaryWriteOptions options) {
  return WriteStringToFile(WriteBinaryGraph(edges, options), path);
}

}  // namespace ubigraph::io
