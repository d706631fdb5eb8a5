// Statistics helpers for the Monte-Carlo experiments: streaming accumulators
// and binomial (Wilson score) confidence intervals for failure rates.
#pragma once

#include <cstdint>

#include "common/json.h"

namespace eqc {

/// Streaming mean / variance accumulator (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  std::uint64_t count() const { return n_; }
  double mean() const;
  double variance() const;  ///< sample variance (n-1 denominator)
  double stddev() const;
  double stderr_mean() const;  ///< standard error of the mean

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Wilson score interval for a binomial proportion.
struct BinomialInterval {
  double center = 0.0;
  double low = 0.0;
  double high = 0.0;
};

/// Wilson interval at approximately 95% confidence (z = 1.96).
BinomialInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                                 double z = 1.96);

/// Failure-rate bookkeeping for a Monte-Carlo experiment.
struct FailureCounter {
  std::uint64_t trials = 0;
  std::uint64_t failures = 0;
  void add(bool failed) {
    ++trials;
    if (failed) ++failures;
  }
  double rate() const { return trials == 0 ? 0.0 : double(failures) / double(trials); }
  BinomialInterval interval(double z = 1.96) const {
    return wilson_interval(failures, trials, z);
  }
  /// Canonical JSON: trials, failures, rate and the Wilson interval —
  /// deterministic, so reports embedding it can be compared byte-for-byte
  /// across `jobs` values.
  json::Value to_json_value() const;
};

/// The `estimator` object a report states once for all its counts: every
/// driver runs a fixed number of items ("stopping_rule": "fixed_n") and
/// quotes Wilson 95% intervals ("interval": "wilson_95"); `engine` names
/// what evaluated the items, `stream_revision` their RNG stream layout.
json::Value estimator_json(const char* engine, std::uint64_t stream_revision);

}  // namespace eqc
