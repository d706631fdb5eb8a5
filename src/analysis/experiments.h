// Named gadget fault experiments — the library's standard analysis targets
// (the Fig. 1 N gate and the Sec. 5 recovery variants) built from a small
// declarative spec, so every consumer (eqc_faultscan, the eqc_serve job
// server, tests, benches) constructs byte-identical experiments from the
// same description.
#pragma once

#include <cstdint>
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

/// Deterministic-enumeration fault model for the scenario's noise axis.
FaultModel scenario_fault_model(const Scenario& s);

/// Stochastic (Monte-Carlo) noise model at physical error rate `p` for the
/// scenario's noise axis.
noise::NoiseModel scenario_noise_model(const Scenario& s, double p);

/// Declarative description of a gadget fault experiment.
struct GadgetSpec {
  /// "ngate" | "recovery" | "recovery-measured"
  std::string gadget = "ngate";
  Scenario scenario;        ///< code / repetition / noise point
  bool syndrome = true;     ///< N-gate parity check (ablation switch)
  std::uint64_t seed = 1;   ///< experiment RNG seed
};

struct BuiltGadget {
  FaultExperiment ex;
  /// Data/source block, for codespace tripwires.
  codes::CodeBlock main_block;
  /// The code the experiment was instantiated with (registry singleton;
  /// valid for the program's lifetime).
  const codes::CssCode* code = nullptr;
  /// Preferred tripwire probe ordinals (round boundaries); empty = every
  /// site.
  std::vector<std::size_t> probe_after;
  /// N gate only: the classical output register the majority predicate
  /// reads (empty for other gadgets).  Exposed so precomputed failure
  /// oracles (frame engine) can reproduce ex.failed without re-deriving
  /// the layout.
  std::vector<std::uint32_t> ngate_out;
};

/// True for the gadget names build_gadget_experiment accepts.
bool is_known_gadget(const std::string& name);

/// Builds the named experiment.  Throws ContractViolation on an unknown
/// gadget name, code name, or noise axis.
BuiltGadget build_gadget_experiment(const GadgetSpec& spec);

/// Monte-Carlo failure count of a built gadget under `model`: `trials`
/// trials of run_noisy on the per-trial driver (engine "trials"), or the
/// same trials as 64-lane frame batches against make_frame_oracle
/// (engine "frames").  `gadget` is the GadgetSpec::gadget name `built`
/// came from.  Both engines fold byte-identical results for any `opt`
/// (jobs, block, resume point, stop token); throws ContractViolation on
/// an unknown engine.
noise::McRunResult run_gadget_mc(const std::string& gadget,
                                 const BuiltGadget& built,
                                 const noise::NoiseModel& model,
                                 std::uint64_t trials, std::uint64_t seed,
                                 const std::string& engine,
                                 const noise::McResumableOptions& opt = {});

}  // namespace eqc::analysis
