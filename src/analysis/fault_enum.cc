#include "analysis/fault_enum.h"

#include <span>

#include "common/assert.h"

namespace eqc::analysis {

namespace {

using circuit::FaultSite;
using pauli::Pauli;
using pauli::PauliString;

void append_site_faults(const FaultSite& site, std::size_t num_qubits,
                        noise::Channel channel, std::vector<Fault>& out) {
  const std::size_t k = site.arity;
  if (channel == noise::Channel::Depolarizing) {
    // All 4^k - 1 non-identity patterns.
    const std::uint64_t patterns = std::uint64_t{1} << (2 * k);
    for (std::uint64_t code = 1; code < patterns; ++code) {
      PauliString p(num_qubits);
      for (std::size_t i = 0; i < k; ++i) {
        const auto label = static_cast<Pauli>((code >> (2 * i)) & 3);
        if (label != Pauli::I) p.set(site.q[i], label);
      }
      out.push_back(Fault{site.ordinal, std::move(p)});
    }
    return;
  }
  // One Pauli on one qubit: X, Y or Z, or Z only (BiasedZ's bias-1 limit).
  static constexpr Pauli kLabels[] = {Pauli::X, Pauli::Y, Pauli::Z};
  const auto labels = std::span(kLabels).last(
      channel == noise::Channel::BiasedZ ? 1 : 3);
  for (std::size_t i = 0; i < k; ++i)
    for (const Pauli label : labels)
      out.push_back(Fault{site.ordinal,
                          PauliString::single(num_qubits, site.q[i], label)});
}

}  // namespace

std::vector<Fault> enumerate_single_faults(const FaultExperiment& ex) {
  const auto sites = circuit::enumerate_fault_sites(ex.gadget);
  std::vector<Fault> out;
  for (const auto& site : sites)
    append_site_faults(site, ex.num_qubits, ex.channel, out);
  return out;
}

bool run_with_faults(const FaultExperiment& ex,
                     const std::vector<Fault>& faults) {
  circuit::PlantedInjector injector;
  return run_with_faults(ex, faults, injector);
}

bool run_with_faults(const FaultExperiment& ex,
                     const std::vector<Fault>& faults,
                     circuit::PlantedInjector& injector) {
  EQC_EXPECTS(ex.failed != nullptr);
  circuit::TabBackend backend(ex.num_qubits, Rng(ex.seed));
  circuit::execute(ex.prep, backend);
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
