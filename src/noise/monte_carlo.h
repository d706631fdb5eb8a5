// Deterministic (parallel) Monte-Carlo trial driver.
//
// Every trial's RNG stream is counter-split off `(seed, trial_index)` via
// derive_stream_seed — never drawn from a sequentially advanced master —
// so trial i's outcome is a pure function of the seed and i: it does not
// change when the trial budget grows, when trials run out of order, or
// when they run on worker threads.  Consequently the returned counter is
// BYTE-IDENTICAL for every `jobs` value; parallelism only changes the
// wall clock.
//
// When `jobs != 1`, the trial callable is invoked concurrently from
// multiple threads and must be safe to do so (the usual pattern — build
// backend, injector and circuit state locally inside the trial — already
// is).  `jobs == 0` means one worker per hardware thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace eqc::noise {

/// Runs `trials` independent trials; `trial` returns true on failure.
FailureCounter run_trials(std::uint64_t trials, std::uint64_t seed,
                          const std::function<bool(Rng&)>& trial,
                          unsigned jobs = 1);

/// Like run_trials, but the callable also receives its trial index (for
/// callers that record per-trial artifacts, and for the regression tests
/// pinning the stream-per-index contract).
FailureCounter run_trials_indexed(
    std::uint64_t trials, std::uint64_t seed,
    const std::function<bool(std::uint64_t, Rng&)>& trial, unsigned jobs = 1);

/// Deterministic parallel map over trial indices: returns `trial`'s value
/// for every index, in index order, independent of `jobs`.  For benches
/// that accumulate real-valued figures (infidelities, magnetizations)
/// rather than failure bits; fold the vector into RunningStats serially
/// and the statistics are byte-identical for any worker count.
std::vector<double> run_trial_values(
    std::uint64_t trials, std::uint64_t seed,
    const std::function<double(std::uint64_t, Rng&)>& trial,
    unsigned jobs = 1);

/// Like run_trials but stops early once `max_failures` have been seen
/// (useful when sweeping into the very-low-p regime).  The stop is applied
/// in trial-index order — parallel runs speculatively evaluate upcoming
/// indices and discard outcomes past the stopping point — so the counter
/// is byte-identical to the serial one.  When the failure budget
/// (not the trial budget) terminates the run, the counter's
/// `stopped_early` flag is set: the sample size is then data-dependent
/// (negative-binomial stopping rule) and the plain binomial rate/Wilson
/// interval are biased; see FailureCounter::rate_unbiased().
FailureCounter run_trials_until(std::uint64_t max_trials,
                                std::uint64_t max_failures, std::uint64_t seed,
                                const std::function<bool(Rng&)>& trial,
                                unsigned jobs = 1);

/// Progress snapshot handed to McResumableOptions::on_block: every trial
/// index below `next_index` is folded into `counter`.
struct McProgress {
  std::uint64_t next_index = 0;
  FailureCounter counter;
};

/// Options for run_trials_resumable — the crash-safe/cancellable flavor of
/// the indexed trial driver used by long-running services.
struct McResumableOptions {
  /// Worker threads (0 = one per hardware thread); never changes the
  /// counter, only the wall clock.
  unsigned jobs = 1;
  /// First trial index of this run (resume point); indices below it are
  /// assumed already folded into `initial`.
  std::uint64_t start_index = 0;
  /// Counter state at `start_index` (from a checkpoint).
  FailureCounter initial{};
  /// Trials between on_block calls (0 = 256).  Only the progress cadence:
  /// it never changes the counter.
  std::uint64_t block = 0;
  /// Cooperative cancellation, polled before every fold: once set, no
  /// further trial is folded.
  const std::atomic<bool>* stop = nullptr;
  /// Invoked every `block` folded trials (counted from start_index) and
  /// after the last one, serialized under the fold's lock — the
  /// checkpoint hook: persisting (next_index, counter) makes the run
  /// resumable from exactly that point.
  std::function<void(const McProgress&)> on_block;
};

struct McRunResult {
  FailureCounter counter;
  /// First trial index NOT folded into `counter` (== trials when complete).
  std::uint64_t next_index = 0;
  /// False when the stop token ended the run early.
  bool complete = false;
};

/// Resumable, cancellable indexed trial driver.  Trials fold in index
/// order; because every trial's stream is counter-split off (seed, index),
/// a run resumed from any (next_index, counter) checkpoint — across any
/// number of process restarts, with any `jobs` values — folds to a final
/// counter BYTE-IDENTICAL to run_trials(trials, seed, ...).
McRunResult run_trials_resumable(
    std::uint64_t trials, std::uint64_t seed,
    const std::function<bool(std::uint64_t, Rng&)>& trial,
    const McResumableOptions& opt = {});

/// Failure bits of `lanes` (1..64) consecutive trials from trial index
/// `start`: bit l set = trial start + l failed.  `worker` is below
/// parallel::sweep_workers(jobs, items), for per-worker scratch.
using LaneEval = std::function<std::uint64_t(
    unsigned worker, std::uint64_t start, unsigned lanes)>;

/// The one trial loop under both Monte-Carlo engines: cuts
/// [opt.start_index, trials) into items of `width` trials (1 for the
/// per-trial driver, 64 for a frame batch), runs them on parallel::sweep
/// and folds their failure bits in trial order.  `max_failures` > 0
/// (width 1 only) ends the run once that many failures are folded and sets
/// the counter's stopped_early flag.
McRunResult sweep_trials(std::uint64_t trials, unsigned width,
                         const LaneEval& eval, const McResumableOptions& opt,
                         std::uint64_t max_failures = 0);

}  // namespace eqc::noise
