// Strict numeric parsing for command-line values.
//
// std::atoi/std::atof read "abc" as 0 and "1x" as 1, so a typo in a flag
// silently became a different campaign ("measured 0 blocks", exit 0).
// ParseNumber accepts a value only when the whole text is one number
// (std::from_chars, no leading whitespace or '+') inside [lo, hi].
#ifndef SLEEPWALK_UTIL_PARSE_H_
#define SLEEPWALK_UTIL_PARSE_H_

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace sleepwalk::util {

/// The value of `text` when it is exactly one T in [lo, hi], else
/// nullopt. NaN never satisfies the range check, so it is refused too.
template <typename T>
std::optional<T> ParseNumber(std::string_view text, T lo, T hi) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (text.empty() || error != std::errc{} || end != last) return std::nullopt;
  if (!(value >= lo && value <= hi)) return std::nullopt;
  return value;
}

}  // namespace sleepwalk::util

#endif  // SLEEPWALK_UTIL_PARSE_H_
