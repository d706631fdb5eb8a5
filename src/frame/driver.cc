#include "frame/driver.h"

#include <optional>
#include <vector>

#include "common/assert.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eqc::frame {

namespace {

/// Trials folded into a result counter.  Stable: a completed run folds the
/// same total regardless of jobs or resume pattern.
obs::Counter& trials_counter() {
  static obs::Counter& c = obs::counter("frames.trials", obs::Det::Stable);
  return c;
}
/// Batches executed.  Runtime: batch geometry depends on resume points (a
/// resumed run re-tiles the remaining index range) and on the batches a
/// stopped run evaluated but never folded.
obs::Counter& batches_counter() {
  static obs::Counter& c = obs::counter("frames.batches", obs::Det::Runtime);
  return c;
}
/// Oracle words evaluated (== batches; kept separate so a future oracle
/// cache shows up as words < batches).  Runtime for the same reason.
obs::Counter& words_counter() {
  static obs::Counter& c = obs::counter("frames.words", obs::Det::Runtime);
  return c;
}

/// Runs [opt.start_index, trials) as 64-lane tiles, one sweep item each,
/// on one FrameBatch per worker — reset_state() keeps vector capacity, so
/// steady-state tiles allocate nothing.  A tile's failure word depends
/// only on its trial indices, so the fold is byte-identical for any worker
/// count or resume point.
noise::McRunResult sweep_tiles(const FrameProgram& prog,
                               const noise::NoiseModel& model,
                               std::uint64_t trials, std::uint64_t seed,
                               const BatchOracle& failed,
                               const noise::McResumableOptions& opt) {
  EQC_EXPECTS(failed != nullptr);
  EQC_EXPECTS(opt.start_index <= trials);
  const std::uint64_t tiles =
      (trials - opt.start_index + FrameBatch::kLanes - 1) / FrameBatch::kLanes;
  std::vector<std::optional<FrameBatch>> batches(
      parallel::sweep_workers(opt.jobs, tiles));
  const noise::McRunResult res = noise::sweep_trials(
      trials, FrameBatch::kLanes,
      [&](unsigned worker, std::uint64_t start, unsigned lanes) {
        auto& batch = batches[worker];
        if (!batch) batch.emplace(prog);
        batches_counter().add(1);
        words_counter().add(1);
        batch->run_stochastic(model, seed, start, lanes);
        return failed(*batch) & batch->active_mask();
      },
      opt);
  trials_counter().add(res.counter.trials - opt.initial.trials);
  return res;
}

}  // namespace

FailureCounter run_trials(const FrameProgram& prog,
                          const noise::NoiseModel& model, std::uint64_t trials,
                          std::uint64_t seed, const BatchOracle& failed,
                          unsigned jobs) {
  obs::Span span("frames.run_trials");
  span.arg("trials", trials);
  noise::McResumableOptions opt;
  opt.jobs = jobs;
  return sweep_tiles(prog, model, trials, seed, failed, opt).counter;
}

noise::McRunResult run_trials_resumable(const FrameProgram& prog,
                                        const noise::NoiseModel& model,
                                        std::uint64_t trials,
                                        std::uint64_t seed,
                                        const BatchOracle& failed,
                                        const noise::McResumableOptions& opt) {
  EQC_EXPECTS(opt.start_index <= trials);
  obs::Span span("frames.block");
  span.arg("start", opt.start_index).arg("count", trials - opt.start_index);
  return sweep_tiles(prog, model, trials, seed, failed, opt);
}

}  // namespace eqc::frame
