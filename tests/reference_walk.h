// Reference fault-site walk for tests: the executor's moment loop written
// out by hand, as execute() carried it before circuit::walk() took over.
// circuit::walk() and every layer built on it must reproduce its steps.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/schedule.h"
#include "circuit/walk.h"

namespace eqc::circuit::reference {

inline constexpr std::size_t kNoOp = ~std::size_t{0};

/// One step of the walk: op `op_index` is applied (is_site false), or the
/// fault site `site` is visited (is_site true; `op_index` is the site's op,
/// kNoOp for Input and Idle sites).
struct Step {
  bool is_site = false;
  std::size_t op_index = kNoOp;
  FaultSite site;
};

inline FaultSite::Kind op_site_kind(OpKind k) {
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

inline std::vector<Step> walk_steps(const Circuit& circuit,
                                    const ExecOptions& options = {}) {
  const Schedule sched = schedule(circuit);
  const auto& ops = circuit.ops();
  std::vector<Step> steps;
  std::uint32_t ordinal = 0;
  auto visit = [&](FaultSite::Kind kind, std::size_t op_index,
                   std::vector<std::uint32_t> qubits) {
    Step step{true, op_index, {}};
    step.site.kind = kind;
    step.site.ordinal = ordinal++;
    step.site.arity = static_cast<std::uint8_t>(qubits.size());
    for (std::size_t k = 0; k < qubits.size(); ++k) step.site.q[k] = qubits[k];
    steps.push_back(step);
  };
  auto apply = [&](std::size_t idx) { steps.push_back(Step{false, idx, {}}); };
  auto op_qubits = [](const Op& op) {
    std::vector<std::uint32_t> qs;
    for (int k = 0; k < arity(op.kind); ++k) qs.push_back(op.q[k]);
    return qs;
  };

  if (options.include_input_sites) {
    const std::size_t kNever = ~std::size_t{0};
    for (std::uint32_t q = 0; q < circuit.num_qubits(); ++q)
      if (sched.first_use[q] != kNever)
        visit(FaultSite::Kind::Input, kNoOp, {q});
  }
  for (std::size_t t = 0; t < sched.moments.size(); ++t) {
    for (std::size_t idx : sched.moments[t]) {
      const Op& op = ops[idx];
      if (op.kind == OpKind::MeasureZ) {
        // Fault strikes before the readout (models readout error).
        visit(FaultSite::Kind::MeasureInput, idx, op_qubits(op));
        apply(idx);
      } else {
        apply(idx);
        visit(op_site_kind(op.kind), idx, op_qubits(op));
      }
    }
    for (std::uint32_t q : sched.idle[t])
      visit(FaultSite::Kind::Idle, kNoOp, {q});
  }
  return steps;
}

/// The visited sites of walk_steps(), in order.
inline std::vector<FaultSite> sites(const Circuit& circuit,
                                    const ExecOptions& options = {}) {
  std::vector<FaultSite> out;
  for (const Step& step : walk_steps(circuit, options))
    if (step.is_site) out.push_back(step.site);
  return out;
}

}  // namespace eqc::circuit::reference
