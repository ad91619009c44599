#include "common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace ubigraph {

namespace {

/// Slicing-by-8 tables for the reflected 0xEDB88320 polynomial: table[0] is
/// the classic byte-at-a-time table, and table[k][b] advances table[k-1][b]
/// by one more zero byte, so eight input bytes fold in with eight lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t crc) {
  static const Tables kT = MakeTables();
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = crc ^ 0xFFFFFFFFu;
  // The 4-byte loads below read bytes in little-endian order; other hosts
  // take the byte loop for the whole buffer.
  if constexpr (std::endian::native == std::endian::little) {
    for (; len >= 8; p += 8, len -= 8) {
      uint32_t lo, hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = kT[7][lo & 0xFF] ^ kT[6][(lo >> 8) & 0xFF] ^ kT[5][(lo >> 16) & 0xFF] ^
          kT[4][lo >> 24] ^ kT[3][hi & 0xFF] ^ kT[2][(hi >> 8) & 0xFF] ^
          kT[1][(hi >> 16) & 0xFF] ^ kT[0][hi >> 24];
    }
  }
  for (; len > 0; ++p, --len) c = kT[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

}  // namespace ubigraph
