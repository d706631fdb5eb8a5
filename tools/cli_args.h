// Command-line values for the tools, parsed whole (parallel::parse_u64 /
// parse_double / parse_jobs): a value that does not parse is a usage
// error, "<tool>: error: ..." and exit status 2, never a silently
// truncated or zero value.
#pragma once

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/parallel.h"

namespace eqc::cli {

template <typename T>
T or_exit(std::optional<T> value, const char* tool, const char* option,
          const char* text, const std::string& want) {
  if (value) return *value;
  std::fprintf(stderr, "%s: error: %s must be %s, got '%s'\n", tool, option,
               want.c_str(), text);
  std::exit(2);
}

inline std::uint64_t u64_arg(const char* tool, const char* option,
                             const char* text) {
  return or_exit(parallel::parse_u64(text), tool, option, text,
                 "a non-negative integer");
}

/// A count that must also fit an int (repetition parameters).
inline int int_arg(const char* tool, const char* option, const char* text) {
  auto value = parallel::parse_u64(text);
  if (value && *value > INT_MAX) value.reset();
  return static_cast<int>(
      or_exit(value, tool, option, text, "a non-negative int"));
}

inline double double_arg(const char* tool, const char* option,
                         const char* text) {
  return or_exit(parallel::parse_double(text), tool, option, text,
                 "a finite number");
}

/// argv[first, argc) walked flag by flag.
class Args {
 public:
  Args(const char* tool, int argc, char** argv, int first, void (*usage)())
      : tool_(tool), next_(argv + first), end_(argv + argc), usage_(usage) {}

  /// Moves `flag` to the next flag; false after the last.
  bool flag(std::string& flag) {
    if (next_ >= end_) return false;
    flag = *next_++;
    return true;
  }

  /// The value of `option`; a missing one is a usage error.
  const char* text(const char* option) {
    if (next_ >= end_) fail(std::string("missing value for ") + option);
    return *next_++;
  }
  std::uint64_t u64(const char* o) { return u64_arg(tool_, o, text(o)); }
  int int_value(const char* o) { return int_arg(tool_, o, text(o)); }
  double real(const char* o) { return double_arg(tool_, o, text(o)); }
  unsigned jobs(const char* o) {
    const char* t = text(o);
    return or_exit(parallel::parse_jobs(t), tool_, o, t,
                   "an integer in [0, " +
                       std::to_string(parallel::kMaxJobs) + "]");
  }

  /// A usage error: "<tool>: error: <message>", then the usage text and
  /// exit status 2.
  [[noreturn]] void fail(const std::string& message) const {
    std::fprintf(stderr, "%s: error: %s\n", tool_, message.c_str());
    usage_();
    std::exit(2);
  }

 private:
  const char* tool_;
  char** next_;
  char** end_;
  void (*usage_)();
};

}  // namespace eqc::cli
