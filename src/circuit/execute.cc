#include "circuit/execute.h"

#include <algorithm>

#include "common/assert.h"

namespace eqc::circuit {

namespace {

void apply_op(const Circuit& circuit, const Op& op, Backend& b,
              std::vector<bool>& cbits) {
  auto cond = [&](std::uint32_t f) {
    return circuit.classical_funcs().at(f)(cbits);
  };
  switch (op.kind) {
    case OpKind::PrepZ: b.prep_z(op.q[0]); break;
    case OpKind::PrepX: b.prep_x(op.q[0]); break;
    case OpKind::H: b.h(op.q[0]); break;
    case OpKind::X: b.x(op.q[0]); break;
    case OpKind::Y: b.y(op.q[0]); break;
    case OpKind::Z: b.z(op.q[0]); break;
    case OpKind::S: b.s(op.q[0]); break;
    case OpKind::Sdg: b.sdg(op.q[0]); break;
    case OpKind::T: b.t(op.q[0]); break;
    case OpKind::Tdg: b.tdg(op.q[0]); break;
    case OpKind::CNOT: b.cnot(op.q[0], op.q[1]); break;
    case OpKind::CZ: b.cz(op.q[0], op.q[1]); break;
    case OpKind::CS: b.cs(op.q[0], op.q[1]); break;
    case OpKind::CSdg: b.csdg(op.q[0], op.q[1]); break;
    case OpKind::Swap: b.swap(op.q[0], op.q[1]); break;
    case OpKind::CCX: b.ccx(op.q[0], op.q[1], op.q[2]); break;
    case OpKind::CCZ: b.ccz(op.q[0], op.q[1], op.q[2]); break;
    case OpKind::MeasureZ:
      cbits.at(op.carg) = b.measure_z(op.q[0]);
      break;
    case OpKind::XIfC:
      if (cond(op.carg)) b.x(op.q[0]);
      break;
    case OpKind::ZIfC:
      if (cond(op.carg)) b.z(op.q[0]);
      break;
    case OpKind::SIfC:
      if (cond(op.carg)) b.s(op.q[0]);
      break;
    case OpKind::SdgIfC:
      if (cond(op.carg)) b.sdg(op.q[0]);
      break;
    case OpKind::CNOTIfC:
      if (cond(op.carg)) b.cnot(op.q[0], op.q[1]);
      break;
    case OpKind::CZIfC:
      if (cond(op.carg)) b.cz(op.q[0], op.q[1]);
      break;
    case OpKind::Idle:
      break;  // noise-only op
  }
}

}  // namespace

ExecResult execute(const Circuit& circuit, Backend& backend,
                   FaultInjector* injector, const ExecOptions& options) {
  EQC_EXPECTS(backend.num_qubits() >= circuit.num_qubits());
  ExecResult result;
  result.cbits.assign(circuit.num_cbits(), false);
  walk(
      circuit, schedule(circuit),
      [&](std::size_t idx, std::size_t) {
        apply_op(circuit, circuit.ops()[idx], backend, result.cbits);
      },
      [&](const FaultSite& site) {
        if (injector != nullptr) injector->visit(site, backend);
      },
      options);
  return result;
}

void PlantedInjector::plant(std::size_t ordinal, pauli::PauliString fault) {
  planted_.emplace_back(ordinal, std::move(fault));
  visited_.push_back(false);
}

void PlantedInjector::visit(const FaultSite& site, Backend& backend) {
  for (std::size_t i = 0; i < planted_.size(); ++i) {
    const auto& [ord, fault] = planted_[i];
    if (ord != site.ordinal) continue;
    // The planted fault must act within the site's qubit set.
    const auto qs = site.qubits();
    for (std::size_t q : fault.support())
      EQC_EXPECTS(std::find(qs.begin(), qs.end(),
                            static_cast<std::uint32_t>(q)) != qs.end());
    backend.apply_pauli(fault);
    visited_[i] = true;
  }
}

bool PlantedInjector::all_planted_visited() const {
  return std::all_of(visited_.begin(), visited_.end(),
                     [](bool v) { return v; });
}

std::vector<std::size_t> PlantedInjector::unvisited_ordinals() const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < planted_.size(); ++i)
    if (!visited_[i]) out.push_back(planted_[i].first);
  return out;
}

std::vector<FaultSite> enumerate_fault_sites(const Circuit& circuit,
                                             const ExecOptions& options) {
  const Schedule sched = schedule(circuit);
  std::vector<FaultSite> sites;
  sites.reserve(circuit.size() + sched.total_idle_locations() +
                (options.include_input_sites ? circuit.num_qubits() : 0));
  walk(
      circuit, sched, [](std::size_t, std::size_t) {},
      [&sites](const FaultSite& site) { sites.push_back(site); }, options);
  return sites;
}

}  // namespace eqc::circuit
