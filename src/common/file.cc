#include "common/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>

namespace ubigraph {

Result<std::string> ReadWholeFile(const std::string& path, std::string_view context) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError(std::string(context) + "cannot open " + path);
  struct stat st {};
  bool ok = ::fstat(fd, &st) == 0;
  const bool sized = ok && S_ISREG(st.st_mode) && st.st_size > 0;
  std::string bytes(sized ? static_cast<size_t>(st.st_size) : 0, '\0');
  size_t got = 0;
  while (ok) {
    if (got == bytes.size()) {
      if (sized) break;
      bytes.resize(std::max<size_t>(2 * got, size_t{1} << 16));
    }
    const ssize_t r = ::read(fd, bytes.data() + got, bytes.size() - got);
    if (r == 0) break;
    if (r > 0) got += static_cast<size_t>(r);
    if (r < 0 && errno != EINTR) ok = false;
  }
  ::close(fd);
  if (!ok) return Status::IOError(std::string(context) + "read failed on " + path);
  bytes.resize(got);
  return bytes;
}

}  // namespace ubigraph
