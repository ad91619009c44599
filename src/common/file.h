// Whole-file reads shared by the text/binary parsers (src/io) and the
// sharded segment and manifest loaders (src/shard).
#pragma once

#include <string>
#include <string_view>

#include "common/result.h"

namespace ubigraph {

/// Reads the file at `path` with one buffer allocated at the file's size.
/// Failures are IOErrors reading `context` + "cannot open <path>" or
/// `context` + "read failed on <path>". A file that shrinks after it was
/// sized yields exactly the bytes read; one that grows yields its first
/// size bytes. Files that report no size (pipes, /proc) are read to EOF.
Result<std::string> ReadWholeFile(const std::string& path,
                                  std::string_view context = {});

}  // namespace ubigraph
