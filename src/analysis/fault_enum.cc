#include "analysis/fault_enum.h"

#include "common/assert.h"

namespace eqc::analysis {

namespace {

using circuit::FaultSite;
using pauli::Pauli;
using pauli::PauliString;

void append_site_faults(const FaultSite& site, std::size_t num_qubits,
                        FaultModel model, std::vector<Fault>& out) {
  const std::size_t k = site.qubits.size();
  if (model == FaultModel::SingleQubit) {
    for (std::size_t i = 0; i < k; ++i)
      for (Pauli label : {Pauli::X, Pauli::Y, Pauli::Z})
        out.push_back(
            Fault{site.ordinal,
                  PauliString::single(num_qubits, site.qubits[i], label)});
    return;
  }
  if (model == FaultModel::SingleQubitZ) {
    for (std::size_t i = 0; i < k; ++i)
      out.push_back(
          Fault{site.ordinal,
                PauliString::single(num_qubits, site.qubits[i], Pauli::Z)});
    return;
  }
  // FullDepolarizing: all 4^k - 1 non-identity patterns.
  const std::uint64_t patterns = std::uint64_t{1} << (2 * k);
  for (std::uint64_t code = 1; code < patterns; ++code) {
    PauliString p(num_qubits);
    for (std::size_t i = 0; i < k; ++i) {
      const auto label = static_cast<Pauli>((code >> (2 * i)) & 3);
      if (label != Pauli::I) p.set(site.qubits[i], label);
    }
    out.push_back(Fault{site.ordinal, std::move(p)});
  }
}

}  // namespace

std::vector<Fault> enumerate_single_faults(const FaultExperiment& ex) {
  const auto sites = circuit::enumerate_fault_sites(ex.gadget);
  std::vector<Fault> out;
  for (const auto& site : sites)
    append_site_faults(site, ex.num_qubits, ex.model, out);
  return out;
}

bool run_with_faults(const FaultExperiment& ex,
                     const std::vector<Fault>& faults) {
  EQC_EXPECTS(ex.failed != nullptr);
  circuit::TabBackend backend(ex.num_qubits, Rng(ex.seed));
  circuit::execute(ex.prep, backend);
  circuit::PlantedInjector injector;
  for (const auto& f : faults) injector.plant(f.ordinal, f.error);
  const auto result = circuit::execute(ex.gadget, backend, &injector);
  // A plant whose ordinal was never visited (stale ordinal after a circuit
  // edit, ordinal beyond the site count) would silently test the WRONG
  // fault set; that must never pass as a verdict.
  EQC_ENSURES(injector.all_planted_visited());
  return ex.failed(backend, result);
}

bool run_noisy(const FaultExperiment& ex, const noise::NoiseModel& model,
               Rng& trial_rng) {
  EQC_EXPECTS(ex.failed != nullptr);
  circuit::TabBackend backend(ex.num_qubits, trial_rng.split());
  circuit::execute(ex.prep, backend);
  noise::StochasticInjector injector(model, trial_rng.split());
  const auto result = circuit::execute(ex.gadget, backend, &injector);
  return ex.failed(backend, result);
}

}  // namespace eqc::analysis
