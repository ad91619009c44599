// CRC32 (IEEE 802.3 polynomial) for binary file-format integrity checks.
#pragma once

#include <cstddef>
#include <cstdint>

namespace ubigraph {

/// Computes or extends a CRC32 checksum (reflected 0xEDB88320, slicing by
/// eight bytes). Start with crc = 0.
uint32_t Crc32(const void* data, size_t len, uint32_t crc = 0);

}  // namespace ubigraph
