// In-place scanner shared by the whitespace-separated line formats: edge
// list, Matrix Market and GraphChallenge TSV. Lines and fields are
// string_views into the caller's buffer, so a parse allocates nothing per
// line. Lines are numbered as std::getline returns them and fields split as
// Trim + SplitWhitespace does, so error messages keep their line numbers.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/strings.h"

namespace ubigraph::io::internal {

/// The C locale's isspace set: ' ', '\t', '\n', '\v', '\f', '\r'.
inline bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Yields a buffer's '\n'-separated lines, numbered from 1. A trailing
/// newline does not start an extra line, and an empty buffer has none.
class LineScanner {
 public:
  explicit LineScanner(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Next(std::string_view* line) {
    if (p_ == end_) return false;
    const auto* nl = static_cast<const char*>(std::memchr(p_, '\n', end_ - p_));
    const char* stop = nl != nullptr ? nl : end_;
    *line = std::string_view(p_, stop - p_);
    p_ = nl != nullptr ? nl + 1 : end_;
    ++line_no_;
    return true;
  }
  size_t line_no() const { return line_no_; }

 private:
  const char* p_;
  const char* end_;
  size_t line_no_ = 0;
};

/// '\n' bytes in `text`: the record bound the parsers reserve from. The
/// 255-byte blocks let the compiler count into vectorized byte lanes.
inline size_t CountNewlines(std::string_view text) {
  size_t total = 0;
  for (size_t i = 0; i < text.size(); i += 255) {
    const size_t end = std::min(text.size(), i + 255);
    uint8_t block = 0;
    for (size_t j = i; j < end; ++j) block += text[j] == '\n';
    total += block;
  }
  return total;
}

/// Splits `line` on whitespace runs, storing at most `max` fields. Returns
/// the field count, or max + 1 when the line holds more than `max`.
inline size_t SplitFields(std::string_view line, std::string_view* fields, size_t max) {
  const char* p = line.data();
  const char* end = p + line.size();
  for (size_t n = 0;; ++n) {
    while (p != end && IsSpace(*p)) ++p;
    if (p == end) return n;
    if (n == max) return max + 1;
    const char* start = p;
    while (p != end && !IsSpace(*p)) ++p;
    fields[n] = std::string_view(start, p - start);
  }
}

/// A whole field as ParseInt64 reads it.
inline bool ParseIntField(std::string_view s, int64_t* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// A whole field as ParseDouble (strtod) reads it. std::from_chars rounds
/// plain decimals the same way; what it rejects or reads differently ('+3.5',
/// hex, out-of-range exponents, NaN payloads) goes to ParseDouble.
inline bool ParseDoubleField(std::string_view s, double* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return (ec == std::errc() && ptr == s.data() + s.size() && !std::isnan(*out)) ||
         ParseDouble(s, out);
}

inline Status ParseErrorAt(size_t line_no, std::string_view what) {
  return Status::ParseError("line " + std::to_string(line_no) + ": " + std::string(what));
}

}  // namespace ubigraph::io::internal
