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

/// Trials folded by run_trials_indexed.  Stable: the folded total of a
/// completed run never depends on the worker count.
obs::Counter& trials_counter() {
  static obs::Counter& c = obs::counter("mc.trials", obs::Det::Stable);
  return c;
}

/// on_block cadence when McResumableOptions::block is 0.
constexpr std::uint64_t kDefaultBlock = 256;

}  // namespace

FailureCounter sweep_trials(std::uint64_t trials, unsigned width,
                            const LaneEval& eval,
                            const McResumableOptions& opt) {
  EQC_EXPECTS(eval != nullptr);
  EQC_EXPECTS(width >= 1 && width <= 64);
  EQC_EXPECTS(opt.initial.trials <= trials);
  EQC_EXPECTS(opt.initial.failures <= opt.initial.trials);
  const std::uint64_t first = opt.initial.trials;
  const std::uint64_t block = opt.block != 0 ? opt.block : kDefaultBlock;
  // Item t covers trials [trial_at(t), trial_at(t + 1)).
  auto trial_at = [&](std::uint64_t item) {
    return std::min(trials, first + item * width);
  };

  FailureCounter counter = opt.initial;
  parallel::SweepOptions sweep_opt;
  sweep_opt.jobs = opt.jobs;
  sweep_opt.stop = opt.stop;
  if (opt.on_block)
    sweep_opt.progress = [&](std::uint64_t item) {
      const std::uint64_t at = trial_at(item);
      const std::uint64_t before = trial_at(item - 1);
      if (at == trials || (at - first) / block != (before - first) / block)
        opt.on_block(counter);
    };

  const std::uint64_t items = (trials - first + width - 1) / width;
  parallel::sweep(
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
        counter.trials += trial_at(item + 1) - trial_at(item);
        counter.failures += static_cast<std::uint64_t>(std::popcount(word));
      });
  return counter;
}

FailureCounter run_trials_indexed(
    std::uint64_t trials, std::uint64_t seed,
    const std::function<bool(std::uint64_t, Rng&)>& trial, unsigned jobs) {
  EQC_EXPECTS(trial != nullptr);
  obs::Span span("mc.run_trials");
  span.arg("trials", trials);
  McResumableOptions opt;
  opt.jobs = jobs;
  const FailureCounter counter = sweep_trials(
      trials, 1,
      [&](unsigned, std::uint64_t i, unsigned) -> std::uint64_t {
        Rng trial_rng(derive_stream_seed(seed, i));
        return trial(i, trial_rng) ? 1 : 0;
      },
      opt);
  trials_counter().add(counter.trials);
  return counter;
}

}  // namespace eqc::noise
