// Fault experiments and their two per-run executors.
//
// A FaultExperiment is a gadget circuit with a noiseless preparation
// prefix, plus a failure oracle.  This header defines the fault universe
// (every Pauli the experiment's noise::Channel can put on each site, the
// enumeration counterpart of the sampled noise model) and runs ONE
// execution of the experiment:
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

struct FaultExperiment {
  std::size_t num_qubits = 0;
  circuit::Circuit prep{1};    ///< run noiselessly before the gadget
  circuit::Circuit gadget{1};  ///< every site here is a fault location
  /// Judges a completed run; true = logical failure.
  std::function<bool(circuit::TabBackend&, const circuit::ExecResult&)>
      failed;
  std::uint64_t seed = 1;  ///< RNG seed used identically for every run
  /// The errors one fault site can produce (enumerate_single_faults): the
  /// paper's model by default, not NoiseModel's Depolarizing default.
  noise::Channel channel = noise::Channel::SingleQubitPauli;
};

/// A concrete fault: a Pauli at one site of the gadget.
struct Fault {
  std::size_t ordinal;
  pauli::PauliString error;
};

/// All single faults of the gadget, site by site in ordinal order: at each
/// site every error ex.channel can put there — X, Y and Z on each qubit
/// (SingleQubitPauli, the paper's counting model), all 4^q - 1 patterns on
/// its q qubits (Depolarizing: correlated gate faults, strictly stronger;
/// see EXPERIMENTS.md), or Z on each qubit (BiasedZ: the bias-1 limit of
/// the dephasing channel, whatever the model's z_bias).
std::vector<Fault> enumerate_single_faults(const FaultExperiment& ex);

/// Executes prep (noiselessly) then gadget with `faults` planted; returns
/// the oracle's verdict.
bool run_with_faults(const FaultExperiment& ex,
                     const std::vector<Fault>& faults);

/// The same run with `faults` planted on the caller's `injector`, which
/// may extend PlantedInjector to read the state after each site (the
/// campaign's codespace tripwire).
bool run_with_faults(const FaultExperiment& ex,
                     const std::vector<Fault>& faults,
                     circuit::PlantedInjector& injector);

/// One Monte-Carlo trial: executes prep (noiselessly) then gadget under a
/// noise::StochasticInjector drawing from `model`; returns the oracle's
/// verdict.  The backend takes trial_rng.split() first, then the injector:
/// the per-trial stream layout frame::FrameBatch lanes reproduce bit for
/// bit (frame/frames.h).
bool run_noisy(const FaultExperiment& ex, const noise::NoiseModel& model,
               Rng& trial_rng);

}  // namespace eqc::analysis
