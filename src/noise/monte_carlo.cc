#include "noise/monte_carlo.h"

#include <algorithm>
#include <bit>
#include <optional>

#include "common/assert.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eqc::noise {

namespace {

/// Trials folded into a result counter.  Stable: the folded total of a
/// completed run never depends on the worker count — run_trials_until
/// adds only the trials its serial-equivalent scan consumed, not the
/// speculatively evaluated ones.
obs::Counter& trials_counter() {
  static obs::Counter& c = obs::counter("mc.trials", obs::Det::Stable);
  return c;
}
/// RNG streams actually derived, INCLUDING speculative evaluations the
/// early-stop scan later discards — so (rng_streams - trials) measures
/// speculation waste.  Jobs-dependent, hence Runtime.
obs::Counter& streams_counter() {
  static obs::Counter& c = obs::counter("mc.rng_streams", obs::Det::Runtime);
  return c;
}

/// on_block cadence when McResumableOptions::block is 0.
constexpr std::uint64_t kDefaultBlock = 256;

/// Per-trial items: trial i draws from stream (seed, i).
FailureCounter sweep_per_trial(
    std::uint64_t trials, std::uint64_t seed,
    const std::function<bool(std::uint64_t, Rng&)>& trial, unsigned jobs,
    std::uint64_t max_failures = 0) {
  EQC_EXPECTS(trial != nullptr);
  McResumableOptions opt;
  opt.jobs = jobs;
  const McRunResult res = sweep_trials(
      trials, 1,
      [&](unsigned, std::uint64_t i, unsigned) -> std::uint64_t {
        streams_counter().add(1);
        Rng trial_rng(derive_stream_seed(seed, i));
        return trial(i, trial_rng) ? 1 : 0;
      },
      opt, max_failures);
  trials_counter().add(res.counter.trials);
  return res.counter;
}

}  // namespace

McRunResult sweep_trials(std::uint64_t trials, unsigned width,
                         const LaneEval& eval, const McResumableOptions& opt,
                         std::uint64_t max_failures) {
  EQC_EXPECTS(eval != nullptr);
  EQC_EXPECTS(width >= 1 && width <= 64);
  EQC_EXPECTS(max_failures == 0 || width == 1);
  EQC_EXPECTS(opt.start_index <= trials);
  const std::uint64_t first = opt.start_index;
  const std::uint64_t block = opt.block != 0 ? opt.block : kDefaultBlock;
  // Item t covers trials [trial_at(t), trial_at(t + 1)).
  auto trial_at = [&](std::uint64_t item) {
    return std::min(trials, first + item * width);
  };

  McRunResult res;
  res.counter = opt.initial;
  parallel::SweepOptions sweep_opt;
  sweep_opt.jobs = opt.jobs;
  sweep_opt.stop = opt.stop;
  if (opt.on_block)
    sweep_opt.progress = [&](std::uint64_t item) {
      const std::uint64_t at = trial_at(item);
      const std::uint64_t before = trial_at(item - 1);
      if (at == trials || (at - first) / block != (before - first) / block)
        opt.on_block(McProgress{at, res.counter});
    };

  const std::uint64_t items = (trials - first + width - 1) / width;
  const std::uint64_t done = parallel::sweep(
      0, items, sweep_opt,
      [&](unsigned worker, std::uint64_t item) {
        const std::uint64_t start = trial_at(item);
        const unsigned lanes =
            static_cast<unsigned>(trial_at(item + 1) - start);
        const std::uint64_t mask =
            lanes == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
        return std::optional<std::uint64_t>(eval(worker, start, lanes) &
                                            mask);
      },
      [&](std::uint64_t item, std::uint64_t word) {
        res.counter.trials += trial_at(item + 1) - trial_at(item);
        res.counter.failures += static_cast<std::uint64_t>(std::popcount(word));
        if (max_failures == 0 || res.counter.failures < max_failures)
          return true;
        res.counter.stopped_early = true;
        return false;
      });
  res.next_index = trial_at(done);
  res.complete = res.next_index == trials;
  return res;
}

FailureCounter run_trials_indexed(
    std::uint64_t trials, std::uint64_t seed,
    const std::function<bool(std::uint64_t, Rng&)>& trial, unsigned jobs) {
  obs::Span span("mc.run_trials");
  span.arg("trials", trials);
  return sweep_per_trial(trials, seed, trial, jobs);
}

FailureCounter run_trials(std::uint64_t trials, std::uint64_t seed,
                          const std::function<bool(Rng&)>& trial,
                          unsigned jobs) {
  return run_trials_indexed(
      trials, seed,
      [&trial](std::uint64_t, Rng& rng) { return trial(rng); }, jobs);
}

std::vector<double> run_trial_values(
    std::uint64_t trials, std::uint64_t seed,
    const std::function<double(std::uint64_t, Rng&)>& trial, unsigned jobs) {
  EQC_EXPECTS(trial != nullptr);
  obs::Span span("mc.run_trial_values");
  span.arg("trials", trials);
  trials_counter().add(trials);
  streams_counter().add(trials);
  std::vector<double> values(trials, 0.0);
  parallel::SweepOptions opt;
  opt.jobs = jobs;
  parallel::sweep(
      0, trials, opt,
      [&](unsigned, std::uint64_t i) {
        Rng trial_rng(derive_stream_seed(seed, i));
        return std::optional<double>(trial(i, trial_rng));
      },
      [&](std::uint64_t i, double v) {
        values[i] = v;
        return true;
      });
  return values;
}

FailureCounter run_trials_until(std::uint64_t max_trials,
                                std::uint64_t max_failures, std::uint64_t seed,
                                const std::function<bool(Rng&)>& trial,
                                unsigned jobs) {
  EQC_EXPECTS(trial != nullptr);
  EQC_EXPECTS(max_failures > 0);
  obs::Span span("mc.run_trials_until");
  return sweep_per_trial(
      max_trials, seed,
      [&trial](std::uint64_t, Rng& rng) { return trial(rng); }, jobs,
      max_failures);
}

}  // namespace eqc::noise
