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

}  // namespace

// One sweep item per 64-lane tile, on one FrameBatch per worker —
// reset_state() keeps vector capacity, so steady-state tiles allocate
// nothing.  A tile's failure word depends only on its trial indices, so
// the fold is byte-identical for any worker count or resume point.
FailureCounter run_trials(const FrameProgram& prog,
                          const noise::NoiseModel& model, std::uint64_t trials,
                          std::uint64_t seed, const BatchOracle& failed,
                          const noise::McResumableOptions& opt) {
  EQC_EXPECTS(failed != nullptr);
  EQC_EXPECTS(opt.initial.trials <= trials);
  const std::uint64_t first = opt.initial.trials;
  obs::Span span("frames.run_trials");
  span.arg("start", first).arg("count", trials - first);
  const std::uint64_t tiles =
      (trials - first + FrameBatch::kLanes - 1) / FrameBatch::kLanes;
  std::vector<std::optional<FrameBatch>> batches(
      parallel::sweep_workers(opt.jobs, tiles));
  const FailureCounter counter = noise::sweep_trials(
      trials, FrameBatch::kLanes,
      [&](unsigned worker, std::uint64_t start, unsigned lanes) {
        auto& batch = batches[worker];
        if (!batch) batch.emplace(prog);
        batches_counter().add(1);
        batch->run_stochastic(model, seed, start, lanes);
        return failed(*batch) & batch->active_mask();
      },
      opt);
  trials_counter().add(counter.trials - first);
  return counter;
}

FailureCounter run_trials(const FrameProgram& prog,
                          const noise::NoiseModel& model, std::uint64_t trials,
                          std::uint64_t seed, const BatchOracle& failed,
                          unsigned jobs) {
  noise::McResumableOptions opt;
  opt.jobs = jobs;
  return run_trials(prog, model, trials, seed, failed, opt);
}

}  // namespace eqc::frame
