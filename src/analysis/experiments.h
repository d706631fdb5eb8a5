// Named gadget fault experiments — the library's standard analysis targets
// (the Fig. 1 N gate and the Sec. 5 recovery variants) built from a small
// declarative spec, so every consumer (eqc_faultscan, the eqc_serve job
// server, the matrix, tests, benches) constructs byte-identical
// experiments from the same description.  The spec names the gadget, the
// scenario point and the logical input the prep encodes; the builder
// derives the prep circuit and the `failed` predicate from that input.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/fault_enum.h"
#include "codes/css_code.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"

namespace eqc::analysis {

/// The (code, repetition k, noise axis) point a gadget experiment is
/// instantiated at.  All fields are scalars so specs serialize naturally —
/// the same property that makes campaign / MC job specs journal-able.
struct Scenario {
  /// CSS code name: "steane" | "rm15" (codes::find_code names).
  std::string code = "steane";
  /// Repetition parameter k; gadgets use 2k+1 classical copies / recovery
  /// rounds (k = 1 is the paper's 3-round majority vote; k = 0 degrades to
  /// a single unvoted round).
  int repetition_k = 1;
  /// Noise axis: "paper" (single-qubit uniform Pauli), "correlated"
  /// (full-depolarizing multi-qubit site faults), "biased-z" (dephasing
  /// dominated, the Z-only enumeration limit).
  std::string noise = "paper";

  /// The odd repetition count 2k+1 the gadget builders consume.
  int reps() const { return 2 * repetition_k + 1; }
};

/// True iff `name` is a noise axis Scenario understands.
bool is_known_noise(const std::string& name);

/// Resolves the scenario's code; throws ContractViolation when unknown.
const codes::CssCode& scenario_code(const Scenario& s);

/// Noise model at physical error rate `p` for the scenario's noise axis:
/// its channel is also the fault universe build_gadget_experiment
/// enumerates.
noise::NoiseModel scenario_noise_model(const Scenario& s, double p);

/// Logical state the prep encodes into the gadget's data/source block.
enum class LogicalInput { Zero, One, Plus };

/// Declarative description of a gadget fault experiment.
struct GadgetSpec {
  /// "ngate" | "recovery" | "recovery-measured"
  std::string gadget = "ngate";
  Scenario scenario;        ///< code / repetition / noise point
  bool syndrome = true;     ///< N-gate parity check (ablation switch)
  std::uint64_t seed = 1;   ///< experiment RNG seed
  /// Logical input.  Unset = the gadget's own: |1>_L for the N gate (the
  /// prep applies a logical X to |0>_L), |0>_L for both recovery gadgets.
  /// The N gate also takes |0>_L, the recovery gadgets |+>_L.  A run fails
  /// when the ideally corrected block no longer holds the input, judged by
  /// logical Z (|0>_L, |1>_L) or logical X (|+>_L); the N gate also fails
  /// when its majority vote misreads the Z value.
  std::optional<LogicalInput> input;
};

struct BuiltGadget {
  /// The spec the experiment was built from, with `input` resolved.
  GadgetSpec spec;
  FaultExperiment ex;
  /// Data/source block, for codespace tripwires.
  codes::CodeBlock main_block;
  /// The code the experiment was instantiated with (registry singleton;
  /// valid for the program's lifetime).
  const codes::CssCode* code = nullptr;
  /// Recovery only: the op count of the gadget at the end of each syndrome
  /// round and correction layer (ftqc::RecoveryRoundMarks::op_boundaries),
  /// where codespace_tripwire probes; empty for the N gate.
  std::vector<std::size_t> round_boundaries;
  /// N gate only: the classical output register the majority predicate
  /// reads (empty for other gadgets).  Exposed so precomputed failure
  /// oracles (frame engine) can reproduce ex.failed without re-deriving
  /// the layout.
  std::vector<std::uint32_t> ngate_out;
};

/// True for the gadget names build_gadget_experiment accepts.
bool is_known_gadget(const std::string& name);

/// Builds the named experiment.  Throws ContractViolation on an unknown
/// gadget name, code name or noise axis, and on an input the gadget does
/// not take (the N gate on |+>_L, recovery on |1>_L).
BuiltGadget build_gadget_experiment(const GadgetSpec& spec);

/// Monte-Carlo failure count of a built gadget under `model`: trials
/// [opt.initial.trials, trials) as 64-lane frame batches judged by
/// make_frame_oracle (which reads the gadget and input from built.spec),
/// folded into opt.initial.  The counter is byte-identical to `trials`
/// runs of run_noisy on the per-trial driver (noise::run_trials_indexed)
/// for any `opt` (jobs, block, resume point, stop token).  A
/// frame::FrameUnsupported from a batch reaches the caller.
FailureCounter run_gadget_mc(const BuiltGadget& built,
                             const noise::NoiseModel& model,
                             std::uint64_t trials, std::uint64_t seed,
                             const noise::McResumableOptions& opt = {});

/// The engine run_gadget_mc's counts come from, as report `estimator`
/// objects name it.
inline constexpr char kMcEngine[] = "frames_64_lane";

}  // namespace eqc::analysis
