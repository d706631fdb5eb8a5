// Frame-engine adapters for the named gadget experiments.
//
// make_frame_program compiles a FaultExperiment's (prep, gadget) pair
// against its reference execution; make_frame_oracle builds the word-level
// failure predicate that reproduces the gadget's ex.failed verdict for all
// 64 lanes at once.  Both gadget families admit a closed form because a
// trial state is F |ref>: the majority vote reads FX bits of the output
// register, and perfect_correct's verdict reduces to the lane's Z-type
// syndrome (XOR-folded FX words) plus the parity of the min-weight
// correction, looked up from a table precomputed off the CssCode.  When a
// build-time soundness check fails (reference block not in the codespace,
// non-classical outputs), the factory falls back to a per-lane oracle that
// replays ex.failed on a frame-adjusted copy of the reference tableau —
// still bit-exact, just not word-parallel.
#pragma once

#include <string>

#include "analysis/experiments.h"
#include "frame/driver.h"
#include "frame/frames.h"

namespace eqc::analysis {

/// Compiles the experiment's circuits against the reference execution at
/// the experiment seed (so planted-fault replay also matches
/// run_with_faults).
frame::FrameProgram make_frame_program(const FaultExperiment& ex);

/// Word-level (or, on fallback, per-lane) batch failure oracle
/// reproducing `built.ex.failed` bit for bit.  The gadget family and the
/// logical input come from built.spec; `gadget` must equal
/// built.spec.gadget (ContractViolation otherwise).  The returned callable
/// owns copies of everything it needs; `built` and `prog` need not
/// outlive it.
frame::BatchOracle make_frame_oracle(const std::string& gadget,
                                     const BuiltGadget& built,
                                     const frame::FrameProgram& prog);

/// The always-applicable fallback: per lane, copy the reference tableau,
/// apply the lane frame, and run `ex.failed` on a TabBackend seeded with
/// the lane's post-run RNG state.  Exact for any predicate; used directly
/// by tests to cross-check the word oracle.
frame::BatchOracle make_generic_frame_oracle(const FaultExperiment& ex,
                                             const frame::FrameProgram& prog);

}  // namespace eqc::analysis
