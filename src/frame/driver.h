// Monte-Carlo driver over 64-lane frame batches.
//
// Same determinism discipline as noise/monte_carlo.h, on the same loop
// (noise::sweep_trials, one 64-lane tile per item): trial i's stream is
// counter-split off (seed, i), so lane assignments, worker counts and
// resume points never change the folded counter — it is BYTE-IDENTICAL to
// the per-trial driver's (and to itself across any jobs value or
// checkpoint/resume pattern).
#pragma once

#include <cstdint>
#include <functional>

#include "frame/frames.h"
#include "noise/monte_carlo.h"

namespace eqc::frame {

/// Failure predicate over one executed batch: bit l of the returned word =
/// lane l failed.  Bits at or above batch.count() are ignored.  Called
/// concurrently on distinct batches when jobs != 1.
using BatchOracle = std::function<std::uint64_t(const FrameBatch&)>;

/// Frame counterpart of noise::run_trials: runs `trials` stochastic trials
/// of `model` in 64-lane batches and folds lane failure bits in trial-index
/// order.
FailureCounter run_trials(const FrameProgram& prog,
                          const noise::NoiseModel& model, std::uint64_t trials,
                          std::uint64_t seed, const BatchOracle& failed,
                          unsigned jobs = 1);

/// Resumable run_trials: checkpoint callback and cooperative stop at tile
/// granularity — byte-identical to any other (jobs, resume) combination
/// with the same (trials, seed, oracle), and to the per-trial driver.
noise::McRunResult run_trials_resumable(const FrameProgram& prog,
                                        const noise::NoiseModel& model,
                                        std::uint64_t trials,
                                        std::uint64_t seed,
                                        const BatchOracle& failed,
                                        const noise::McResumableOptions& opt =
                                            {});

}  // namespace eqc::frame
