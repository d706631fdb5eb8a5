// Shared helpers for the experiment benches.
//
// Every bench binary regenerates one experiment from EXPERIMENTS.md and
// prints PASS/FAIL against the paper's qualitative claim.  Trial counts
// scale with the environment variable EQC_BENCH_SCALE (default 1.0), so
// `EQC_BENCH_SCALE=10 ./bench_...` runs a 10x deeper version.
//
// Common flags (see Reporter):
//   --jobs N     worker threads for the Monte-Carlo and fault-counting
//                sections (0 = one per hardware thread; anything but a
//                count in [0, 1024] is a usage error).  Never changes
//                any reported number — per-trial RNG streams are
//                counter-split (noise/monte_carlo) and campaign reports are
//                jobs-invariant (analysis/campaign) — only the wall clock.
//   --json PATH  where to write the machine-readable report (default
//                BENCH_<name>.json in the working directory)
//   --no-json    skip writing the report
// A bad flag prints "bench_<name>: error: ..." and exits 2, as the tools do.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "cli_args.h"
#include "common/json.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace eqc::bench {

inline double scale() {
  static const double value = [] {
    const char* env = std::getenv("EQC_BENCH_SCALE");
    if (env == nullptr) return 1.0;
    const double v = std::atof(env);
    return v > 0.0 ? v : 1.0;
  }();
  return value;
}

inline std::uint64_t scaled(std::uint64_t base) {
  const double v = static_cast<double>(base) * scale();
  return v < 1.0 ? 1 : static_cast<std::uint64_t>(v);
}

inline void section(const std::string& title) {
  std::printf("\n--- %s ---\n", title.c_str());
}

inline void banner(const std::string& title) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("(EQC_BENCH_SCALE=%.2g)\n", scale());
  std::printf("==============================================================\n");
}

inline int verdict(bool pass, const std::string& claim) {
  std::printf("[%s] %s\n", pass ? "PASS" : "FAIL", claim.c_str());
  return pass ? 0 : 1;
}

/// Formats a Monte-Carlo estimate as "rate [low,high]" using the counter's
/// Wilson 95% interval — sampled rates are never quoted bare.
inline std::string rate_ci(const FailureCounter& counter) {
  const auto iv = counter.interval();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.5f [%.5f,%.5f]", counter.rate(), iv.low,
                iv.high);
  return std::string(buf);
}

/// Wall-clock stopwatch for the perf-trajectory metrics.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-bench flag parsing plus the BENCH_<name>.json report.
///
/// The report schema (version 2):
///   {
///     "version": 2, "bench": "<name>", "scale": <EQC_BENCH_SCALE>,
///     "jobs": <resolved --jobs>, "pass": <all verdicts passed>,
///     "metrics":  { "<key>": <number|string>, ... },   // incl. *_wall_ms
///     "counters": { "<key>": FailureCounter::to_json_value(), ... },
///     "phases":   { "<name>_wall_ms": <ms>, ... },     // see phase()
///     "obs":      obs::Registry::global().snapshot()
///   }
/// Version 1 fields are unchanged; v2 appends "phases" (a per-phase
/// wall-clock breakdown, in insertion order) and "obs" (the process
/// metrics snapshot).  "counters" and every non-timing metric are
/// deterministic — byte-identical across --jobs values; keys matching
/// *wall_ms, "phases" and the snapshot's "runtime" section carry timings
/// and are the machine-dependent entries (CI's determinism gate excludes
/// them).
class Reporter {
 public:
  Reporter(std::string name, int argc, char** argv)
      : name_(std::move(name)),
        tool_("bench_" + name_),
        json_path_("BENCH_" + name_ + ".json") {
    cli::Args args(tool_.c_str(), argc, argv, 1, [] {
      std::fprintf(stderr, "usage: bench_<name> [--jobs N] [--json PATH] "
                           "[--no-json]\n");
    });
    for (std::string arg; args.flag(arg);) {
      if (arg == "--jobs")
        jobs_ = args.jobs("--jobs");
      else if (arg == "--json")
        json_path_ = args.text("--json");
      else if (arg == "--no-json")
        json_path_.clear();
      else
        args.fail("unknown option: " + arg);
    }
  }

  /// Requested worker count, for the Monte-Carlo drivers (1 when the
  /// flag is absent; 0 passes "one per hardware thread" through).
  unsigned jobs() const { return jobs_; }

  void metric(const std::string& key, json::Value v) {
    metrics_.emplace_back(key, std::move(v));
  }
  void counter(const std::string& key, const FailureCounter& c) {
    counters_.emplace_back(key, c.to_json_value());
  }
  /// Records a named phase's wall time under "phases" as "<name>_wall_ms".
  void phase(const std::string& name, double wall_ms) {
    phases_.emplace_back(name + "_wall_ms", json::Value(wall_ms));
  }

  /// RAII phase timer: times a scope and records it at exit.
  ///   { auto p = reporter.scoped_phase("mc_sweep"); run_sweep(); }
  class ScopedPhase {
   public:
    ScopedPhase(Reporter& r, std::string name)
        : reporter_(r), name_(std::move(name)) {}
    ScopedPhase(const ScopedPhase&) = delete;
    ScopedPhase& operator=(const ScopedPhase&) = delete;
    ~ScopedPhase() { reporter_.phase(name_, timer_.ms()); }

   private:
    Reporter& reporter_;
    std::string name_;
    WallTimer timer_;
  };
  ScopedPhase scoped_phase(std::string name) {
    return ScopedPhase(*this, std::move(name));
  }

  /// Prints the summary verdict, writes the JSON report, and returns the
  /// process exit code; call as `return reporter.finish(failures);`.
  int finish(int failures) {
    std::printf("\n%s overall: %s\n", name_.c_str(),
                failures == 0 ? "PASS" : "FAIL");
    if (!json_path_.empty()) {
      json::Object doc;
      doc.emplace_back("version", json::Value(2));
      doc.emplace_back("bench", json::Value(name_));
      doc.emplace_back("scale", json::Value(scale()));
      doc.emplace_back("jobs", json::Value(jobs_));
      doc.emplace_back("pass", json::Value(failures == 0));
      doc.emplace_back("metrics", json::Value(std::move(metrics_)));
      doc.emplace_back("counters", json::Value(std::move(counters_)));
      doc.emplace_back("phases", json::Value(std::move(phases_)));
      doc.emplace_back("obs", obs::Registry::global().snapshot());
      std::ofstream out(json_path_, std::ios::binary | std::ios::trunc);
      out << json::Value(std::move(doc)).dump() << "\n";
      if (out.good())
        std::printf("report written to %s\n", json_path_.c_str());
      else
        std::fprintf(stderr, "failed to write %s\n", json_path_.c_str());
    }
    return failures == 0 ? 0 : 1;
  }

 private:
  std::string name_;
  std::string tool_;
  std::string json_path_;
  unsigned jobs_ = 1;
  json::Object metrics_;
  json::Object counters_;
  json::Object phases_;
};

/// Least-squares slope of log(y) vs log(x), skipping non-positive ys.
inline double loglog_slope(const std::vector<double>& xs,
                           const std::vector<double>& ys) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  int n = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (ys[i] <= 0.0) continue;
    const double lx = std::log(xs[i]);
    const double ly = std::log(ys[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  if (n < 2) return 0.0;
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

/// Counts the size-k fault sets of `ex` through the campaign engine
/// (budget 0 = exhaustive), without shrinking the malignant ones.
inline analysis::CampaignReport count_fault_sets(
    const analysis::FaultExperiment& ex, std::size_t k, std::uint64_t budget,
    unsigned jobs, std::uint64_t sample_seed = 99) {
  analysis::CampaignConfig cfg;
  cfg.k = k;
  cfg.budget = budget;
  cfg.jobs = jobs;
  cfg.sample_seed = sample_seed;
  cfg.shrink = false;
  return analysis::run_campaign(ex, cfg);
}

}  // namespace eqc::bench
