#include "circuit/execute.h"

#include <algorithm>

#include "common/assert.h"

namespace eqc::circuit {

namespace {

std::vector<std::uint32_t> op_qubits(const Op& op) {
  std::vector<std::uint32_t> qs;
  for (int k = 0; k < arity(op.kind); ++k) qs.push_back(op.q[k]);
  return qs;
}

FaultSite::Kind site_kind(OpKind k) {
  switch (k) {
    case OpKind::PrepZ:
    case OpKind::PrepX:
      return FaultSite::Kind::PrepOutput;
    case OpKind::MeasureZ:
      return FaultSite::Kind::MeasureInput;
    case OpKind::Idle:
      return FaultSite::Kind::Idle;
    default:
      return FaultSite::Kind::GateOutput;
  }
}

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
  const Schedule sched = schedule(circuit);
  const auto& ops = circuit.ops();

  ExecResult result;
  result.cbits.assign(circuit.num_cbits(), false);

  std::size_t ordinal = 0;
  auto visit = [&](FaultSite::Kind kind, std::size_t moment,
                   std::size_t op_index, std::vector<std::uint32_t> qubits) {
    if (injector != nullptr) {
      FaultSite site;
      site.kind = kind;
      site.ordinal = ordinal;
      site.moment = moment;
      site.op_index = op_index;
      site.qubits = std::move(qubits);
      injector->visit(site, backend);
    }
    ++ordinal;
  };

  if (options.include_input_sites) {
    const std::size_t kNever = ~std::size_t{0};
    for (std::uint32_t q = 0; q < circuit.num_qubits(); ++q)
      if (sched.first_use[q] != kNever)
        visit(FaultSite::Kind::Input, 0, FaultSite::kNoOp, {q});
  }

  for (std::size_t t = 0; t < sched.moments.size(); ++t) {
    for (std::size_t idx : sched.moments[t]) {
      const Op& op = ops[idx];
      if (op.kind == OpKind::MeasureZ) {
        // Fault strikes before the readout (models readout error).
        visit(FaultSite::Kind::MeasureInput, t, idx, op_qubits(op));
        apply_op(circuit, op, backend, result.cbits);
      } else {
        apply_op(circuit, op, backend, result.cbits);
        visit(site_kind(op.kind), t, idx, op_qubits(op));
      }
    }
    for (std::uint32_t q : sched.idle[t])
      visit(FaultSite::Kind::Idle, t, FaultSite::kNoOp, {q});
  }
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
    for (std::size_t q : fault.support())
      EQC_EXPECTS(std::find(site.qubits.begin(), site.qubits.end(),
                            static_cast<std::uint32_t>(q)) !=
                  site.qubits.end());
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
  // Site enumeration is a pure function of the schedule; no simulation
  // needed.  This mirrors execute()'s visitation order exactly.
  const Schedule sched = schedule(circuit);
  const auto& ops = circuit.ops();
  std::vector<FaultSite> sites;
  sites.reserve(circuit.size() + sched.total_idle_locations() +
                (options.include_input_sites ? circuit.num_qubits() : 0));
  std::size_t ordinal = 0;

  auto add = [&](FaultSite::Kind kind, std::size_t moment,
                 std::size_t op_index, std::vector<std::uint32_t> qubits) {
    FaultSite site;
    site.kind = kind;
    site.ordinal = ordinal++;
    site.moment = moment;
    site.op_index = op_index;
    site.qubits = std::move(qubits);
    sites.push_back(std::move(site));
  };

  if (options.include_input_sites) {
    const std::size_t kNever = ~std::size_t{0};
    for (std::uint32_t q = 0; q < circuit.num_qubits(); ++q)
      if (sched.first_use[q] != kNever)
        add(FaultSite::Kind::Input, 0, FaultSite::kNoOp, {q});
  }
  for (std::size_t t = 0; t < sched.moments.size(); ++t) {
    for (std::size_t idx : sched.moments[t])
      add(site_kind(ops[idx].kind), t, idx, op_qubits(ops[idx]));
    for (std::uint32_t q : sched.idle[t])
      add(FaultSite::Kind::Idle, t, FaultSite::kNoOp, {q});
  }
  return sites;
}

}  // namespace eqc::circuit
