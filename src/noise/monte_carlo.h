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

#include "common/rng.h"
#include "common/stats.h"

namespace eqc::noise {

/// Options for sweep_trials and the resumable runs built on it
/// (frame::run_trials behind analysis::run_gadget_mc): the
/// crash-safe/cancellable flavor of the trial loop used by long-running
/// services.  The folded counter is the run's only progress state: trial
/// indices [0, counter.trials) are folded into it.
struct McResumableOptions {
  /// Worker threads (0 = one per hardware thread); never changes the
  /// counter, only the wall clock.
  unsigned jobs = 1;
  /// Counter to resume from (a checkpoint's): the run starts at trial
  /// index initial.trials.
  FailureCounter initial{};
  /// Trials between on_block calls (0 = 256).  Only the progress cadence:
  /// it never changes the counter.
  std::uint64_t block = 0;
  /// Cooperative cancellation, polled before every fold: once set, no
  /// further trial is folded.
  const std::atomic<bool>* stop = nullptr;
  /// Invoked every `block` folded trials (counted from initial.trials) and
  /// after the last one, serialized under the fold's lock — the
  /// checkpoint hook: persisting the counter makes the run resumable from
  /// exactly that point.
  std::function<void(const FailureCounter&)> on_block;
};

/// Failure bits of `lanes` (1..64) consecutive trials from trial index
/// `start`: bit l set = trial start + l failed.  `worker` is below
/// parallel::sweep_workers(jobs, items), for per-worker scratch.
using LaneEval = std::function<std::uint64_t(
    unsigned worker, std::uint64_t start, unsigned lanes)>;

/// The one trial loop under both Monte-Carlo engines: cuts
/// [opt.initial.trials, trials) into items of `width` trials (1 for the
/// per-trial driver, 64 for a frame batch), runs them on parallel::sweep
/// and folds their failure bits in trial order into a copy of
/// opt.initial.  The run is complete when the returned counter's trials
/// equal `trials`; a stop token leaves it short.  When `eval`'s bits
/// depend only on the trial indices (every caller counter-splits trial i's
/// stream off (seed, i)), a run resumed from any checkpointed counter —
/// across any number of process restarts, with any `jobs` values — folds
/// to the same final counter as an uninterrupted one.  Throws
/// ContractViolation unless initial.failures <= initial.trials <= trials.
FailureCounter sweep_trials(std::uint64_t trials, unsigned width,
                            const LaneEval& eval,
                            const McResumableOptions& opt);

/// Runs `trials` independent trials, one per item; `trial` receives its
/// trial index and stream and returns true on failure.  Callers that
/// record per-trial values write them at the index and return false.
FailureCounter run_trials_indexed(
    std::uint64_t trials, std::uint64_t seed,
    const std::function<bool(std::uint64_t, Rng&)>& trial, unsigned jobs = 1);

}  // namespace eqc::noise
