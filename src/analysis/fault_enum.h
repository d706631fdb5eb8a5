// Fault experiments and their two per-run executors.
//
// A FaultExperiment is a gadget circuit with a noiseless preparation
// prefix, plus a failure oracle.  This header defines the fault universe
// (every Pauli a fault model allows at every site) and runs ONE execution
// of the experiment:
//  * run_with_faults plants a given fault set (the deterministic regime of
//    the paper's "count the potential places for two errors"), and
//  * run_noisy draws faults from a stochastic noise model (one
//    Monte-Carlo trial).
// Counting over the fault universe — single-fault certification, pair
// counts, k-fault sets — lives in analysis/campaign.h.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "common/rng.h"
#include "noise/model.h"

namespace eqc::analysis {

/// Which errors one fault location can produce.
enum class FaultModel {
  /// One Pauli on ONE qubit of the site — the paper's counting model
  /// ("probability p of an error per gate, per input bit, per delay line").
  SingleQubit,
  /// Any non-identity Pauli on the site's qubit set (correlated multi-qubit
  /// gate faults).  Strictly stronger; see EXPERIMENTS.md for where the two
  /// models diverge.
  FullDepolarizing,
  /// One Z on ONE qubit of the site — the enumeration counterpart of the
  /// dephasing-dominated noise::Channel::BiasedZ (the bias-1 limit).
  SingleQubitZ,
};

struct FaultExperiment {
  std::size_t num_qubits = 0;
  circuit::Circuit prep{1};    ///< run noiselessly before the gadget
  circuit::Circuit gadget{1};  ///< every site here is a fault location
  /// Judges a completed run; true = logical failure.
  std::function<bool(circuit::TabBackend&, const circuit::ExecResult&)>
      failed;
  std::uint64_t seed = 1;  ///< RNG seed used identically for every run
  FaultModel model = FaultModel::SingleQubit;
};

/// A concrete fault: a Pauli at one site of the gadget.
struct Fault {
  std::size_t ordinal;
  pauli::PauliString error;
};

/// All single faults of the gadget: every non-identity Pauli on every
/// qubit-subset pattern of every site (weight-1 patterns for multi-qubit
/// sites are included via the full Pauli set on the site's qubits).
std::vector<Fault> enumerate_single_faults(const FaultExperiment& ex);

/// Executes prep (noiselessly) then gadget with `faults` planted; returns
/// the oracle's verdict.
bool run_with_faults(const FaultExperiment& ex,
                     const std::vector<Fault>& faults);

/// One Monte-Carlo trial: executes prep (noiselessly) then gadget under a
/// noise::StochasticInjector drawing from `model`; returns the oracle's
/// verdict.  The backend takes trial_rng.split() first, then the injector:
/// the per-trial stream layout frame::FrameBatch lanes reproduce bit for
/// bit (frame/frames.h).
bool run_noisy(const FaultExperiment& ex, const noise::NoiseModel& model,
               Rng& trial_rng);

}  // namespace eqc::analysis
