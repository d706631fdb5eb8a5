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
  /// True when the run that produced these counts was terminated by a
  /// failure-budget stopping rule rather than by exhausting its trial
  /// budget.  Under that negative-binomial stopping rule the plain binomial
  /// rate() is biased upward and the Wilson interval's nominal coverage
  /// does not hold, so consumers must either annotate the estimate or
  /// switch estimator (see rate_unbiased()).  No driver in this library
  /// stops early; the flag stays because the canonical JSON of every
  /// committed counter, report and checkpoint carries it.
  bool stopped_early = false;

  void add(bool failed) {
    ++trials;
    if (failed) ++failures;
  }
  double rate() const { return trials == 0 ? 0.0 : double(failures) / double(trials); }
  /// Stopping-rule-aware point estimate: the plain binomial MLE when the
  /// trial budget was exhausted, and the unbiased negative-binomial
  /// estimator (failures - 1) / (trials - 1) when the run stopped early on
  /// its failure budget (the last trial is a failure by construction).
  double rate_unbiased() const {
    if (!stopped_early || failures == 0) return rate();
    if (trials <= 1) return rate();
    return double(failures - 1) / double(trials - 1);
  }
  BinomialInterval interval(double z = 1.96) const {
    return wilson_interval(failures, trials, z);
  }
  /// Canonical JSON: counts, both estimators, the Wilson interval and the
  /// stopping flag — deterministic, so reports embedding it can be compared
  /// byte-for-byte across `jobs` values.
  json::Value to_json_value() const;
};

}  // namespace eqc
