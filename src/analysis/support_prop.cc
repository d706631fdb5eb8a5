#include "analysis/support_prop.h"

#include <algorithm>

#include "circuit/walk.h"
#include "common/assert.h"
#include "common/rng.h"

namespace eqc::analysis {

namespace {

using circuit::Op;
using circuit::OpKind;

struct Flags {
  std::vector<bool> x;
  std::vector<bool> z;

  void clear(std::uint32_t q) {
    x[q] = false;
    z[q] = false;
  }
};

// Worst-case conjugation of possible error components through one op.
void propagate_op(const Op& op, Flags& f) {
  const auto q0 = op.q[0];
  const auto q1 = op.q[1];
  const auto q2 = op.q[2];
  switch (op.kind) {
    case OpKind::PrepZ:
    case OpKind::PrepX:
      f.clear(q0);  // fresh qubit
      break;
    case OpKind::H: {
      const bool x = f.x[q0];
      f.x[q0] = f.z[q0];
      f.z[q0] = x;
      break;
    }
    case OpKind::S:
    case OpKind::Sdg:
    case OpKind::T:
    case OpKind::Tdg:
      if (f.x[q0]) f.z[q0] = true;  // X may rotate into Y
      break;
    case OpKind::X:
    case OpKind::Y:
    case OpKind::Z:
    case OpKind::Idle:
    case OpKind::MeasureZ:
    case OpKind::XIfC:
    case OpKind::ZIfC:
      break;  // Paulis / passive ops do not move supports
    case OpKind::SIfC:
    case OpKind::SdgIfC:
      if (f.x[q0]) f.z[q0] = true;
      break;
    case OpKind::CNOT:
    case OpKind::CNOTIfC:
      if (f.x[q0]) f.x[q1] = true;  // bit errors spread control -> target
      if (f.z[q1]) f.z[q0] = true;  // phase errors spread target -> control
      break;
    case OpKind::CZ:
    case OpKind::CZIfC:
      if (f.x[q0]) f.z[q1] = true;
      if (f.x[q1]) f.z[q0] = true;
      break;
    case OpKind::CS:
    case OpKind::CSdg:
      if (f.x[q0]) f.z[q1] = true;
      if (f.x[q1]) {
        f.z[q0] = true;
        f.z[q1] = true;  // X on the target may rotate into Y
      }
      break;
    case OpKind::Swap: {
      // vector<bool> proxies do not std::swap; exchange manually.
      const bool xt = f.x[q0];
      f.x[q0] = f.x[q1];
      f.x[q1] = xt;
      const bool zt = f.z[q0];
      f.z[q0] = f.z[q1];
      f.z[q1] = zt;
      break;
    }
    case OpKind::CCX:
      if (f.x[q0] || f.x[q1]) f.x[q2] = true;
      if (f.z[q2]) {
        f.z[q0] = true;
        f.z[q1] = true;
      }
      // Correlated remainder of conjugating X through a control: the
      // "CNOT-valued" error may add phase components on the other control.
      if (f.x[q0]) f.z[q1] = true;
      if (f.x[q1]) f.z[q0] = true;
      break;
    case OpKind::CCZ:
      if (f.x[q0]) { f.z[q1] = true; f.z[q2] = true; }
      if (f.x[q1]) { f.z[q0] = true; f.z[q2] = true; }
      if (f.x[q2]) { f.z[q0] = true; f.z[q1] = true; }
      break;
  }
}

}  // namespace

SupportState propagate_supports(const circuit::Circuit& circuit,
                                const std::vector<SupportFault>& faults,
                                const std::vector<bool>& classical_qubits) {
  const std::size_t n = circuit.num_qubits();
  EQC_EXPECTS(classical_qubits.size() == n);
  Flags f;
  f.x.assign(n, false);
  f.z.assign(n, false);

  auto scrub_classical = [&](std::uint32_t q) {
    if (classical_qubits[q]) f.z[q] = false;
  };

  const auto& ops = circuit.ops();
  circuit::walk(
      circuit, circuit::schedule(circuit),
      [&](std::size_t idx, std::size_t) {
        const Op& op = ops[idx];
        propagate_op(op, f);
        // Classical qubits shed phase corruption after every op they take
        // part in, except a readout, which leaves the flags as they are.
        if (op.kind != OpKind::MeasureZ)
          for (int k = 0; k < circuit::arity(op.kind); ++k)
            scrub_classical(op.q[k]);
      },
      [&](const circuit::FaultSite& site) {
        for (const auto& fault : faults) {
          if (fault.ordinal != site.ordinal) continue;
          for (const std::uint32_t q : site.qubits()) {
            if (fault.with_x) f.x[q] = true;
            if (fault.with_z) f.z[q] = true;
            scrub_classical(q);
          }
        }
      });

  SupportState out;
  out.x = std::move(f.x);
  out.z = std::move(f.z);
  for (std::uint32_t q = 0; q < n; ++q)
    if (classical_qubits[q]) out.z[q] = false;
  return out;
}

std::vector<BlockDamage> assess_blocks(const SupportState& state,
                                       const std::vector<BlockSpec>& blocks) {
  std::vector<BlockDamage> out;
  out.reserve(blocks.size());
  for (const auto& block : blocks) {
    BlockDamage d;
    d.name = block.name;
    d.tolerance = block.tolerance;
    for (auto q : block.qubits) {
      const bool corrupted =
          block.classical ? state.x[q] : (state.x[q] || state.z[q]);
      if (corrupted) ++d.corrupted;
    }
    out.push_back(std::move(d));
  }
  return out;
}

SupportPairReport analyze_supports(
    const circuit::Circuit& circuit, const std::vector<BlockSpec>& blocks,
    const std::vector<bool>& classical_qubits, std::uint64_t pair_budget,
    std::uint64_t sample_seed,
    const std::function<bool(const circuit::FaultSite&)>& site_filter) {
  SupportPairReport report;
  auto sites = circuit::enumerate_fault_sites(circuit);
  if (site_filter != nullptr) {
    std::vector<circuit::FaultSite> kept;
    for (auto& site : sites)
      if (site_filter(site)) kept.push_back(std::move(site));
    sites = std::move(kept);
  }
  report.num_sites = sites.size();

  auto violates = [&](const std::vector<SupportFault>& faults) {
    const auto state = propagate_supports(circuit, faults, classical_qubits);
    for (const auto& damage : assess_blocks(state, blocks))
      if (damage.exceeded()) return true;
    return false;
  };

  // Single-fault scan (worst-case X+Z corruption subsumes all Paulis; the
  // propagation rules are monotone in the input corruption).
  for (const auto& site : sites)
    if (violates({SupportFault{site.ordinal, true, true}}))
      ++report.single_fault_violations;

  const std::uint64_t n = sites.size();
  const std::uint64_t total_pairs = n * (n - 1) / 2;
  if (total_pairs <= pair_budget) {
    report.exhaustive = true;
    for (std::uint64_t i = 0; i < n; ++i)
      for (std::uint64_t j = i + 1; j < n; ++j) {
        ++report.pairs_tested;
        if (violates({SupportFault{sites[i].ordinal, true, true},
                      SupportFault{sites[j].ordinal, true, true}}))
          ++report.malignant_bound;
      }
    return report;
  }

  Rng rng(sample_seed);
  while (report.pairs_tested < pair_budget) {
    const std::uint64_t i = rng.below(n);
    const std::uint64_t j = rng.below(n);
    if (i == j) continue;
    ++report.pairs_tested;
    if (violates({SupportFault{sites[i].ordinal, true, true},
                  SupportFault{sites[j].ordinal, true, true}}))
      ++report.malignant_bound;
  }
  return report;
}

}  // namespace eqc::analysis
