#include "common/stats.h"

#include <cmath>

#include "common/assert.h"

namespace eqc {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return mean_; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  if (n_ == 0) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

json::Value FailureCounter::to_json_value() const {
  const auto iv = interval();
  json::Object obj;
  obj.emplace_back("trials", json::Value(trials));
  obj.emplace_back("failures", json::Value(failures));
  obj.emplace_back("rate", json::Value(rate()));
  obj.emplace_back("wilson_low", json::Value(iv.low));
  obj.emplace_back("wilson_high", json::Value(iv.high));
  return json::Value(std::move(obj));
}

json::Value estimator_json(const char* engine,
                           std::uint64_t stream_revision) {
  json::Object obj;
  obj.emplace_back("stopping_rule", json::Value("fixed_n"));
  obj.emplace_back("interval", json::Value("wilson_95"));
  obj.emplace_back("engine", json::Value(engine));
  obj.emplace_back("stream_revision", json::Value(stream_revision));
  return json::Value(std::move(obj));
}

BinomialInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                                 double z) {
  EQC_EXPECTS(successes <= trials);
  BinomialInterval out;
  if (trials == 0) return out;
  const double n = static_cast<double>(trials);
  const double phat = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (phat + z2 / (2.0 * n)) / denom;
  const double margin =
      z * std::sqrt(phat * (1.0 - phat) / n + z2 / (4.0 * n * n)) / denom;
  out.center = phat;
  out.low = center - margin;
  out.high = center + margin;
  if (out.low < 0.0) out.low = 0.0;
  if (out.high > 1.0) out.high = 1.0;
  return out;
}

}  // namespace eqc
