// The executor's fault-site order, defined once.
//
// A fault site is a place where one error may strike: an input qubit, the
// output of a (re-)preparation or gate, the input of a measurement, a
// waiting qubit ("delay line").  The paper's threshold comes from
// "counting the potential places for two errors", so every layer that names
// a site by its ordinal — the executor's injectors, enumerate_fault_sites,
// the frame compiler's site table, support propagation, tripwire probe
// placement — walks the circuit through walk() below and cannot disagree
// on what the places are or in which order they come.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "circuit/circuit.h"
#include "circuit/schedule.h"

namespace eqc::circuit {

struct FaultSite {
  enum class Kind : std::uint8_t {
    Input,         ///< error on an input qubit before the circuit starts
    PrepOutput,    ///< error after an ancilla (re-)preparation
    GateOutput,    ///< error after a unitary gate
    MeasureInput,  ///< error right before a measurement
    Idle,          ///< storage error on a waiting qubit ("delay line")
  };

  Kind kind = Kind::GateOutput;
  std::uint8_t arity = 0;  ///< number of qubits the fault may act on (1-3)
  /// Those qubits, q[0..arity); unused slots hold kNoOperand.
  std::array<std::uint32_t, 3> q{kNoOperand, kNoOperand, kNoOperand};
  std::uint32_t ordinal = 0;  ///< position in walk() order

  std::span<const std::uint32_t> qubits() const { return {q.data(), arity}; }
};
// Stored by the thousand in site tables (the frame engine's sampler reads
// one per candidate), so every field is inline and the record stays small.
static_assert(sizeof(FaultSite) <= 20);

struct ExecOptions {
  /// Emit an Input fault site for every used qubit before the first moment.
  bool include_input_sites = false;
};

/// Kind of the fault site an op of kind `k` carries.
constexpr FaultSite::Kind site_kind(OpKind k) {
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

/// Walks `circuit` under its schedule `sched` (= schedule(circuit)) in the
/// executor's order, calling on_site(const FaultSite&) at every fault site
/// and on_op(op_index, ordinal) for every op, where `ordinal` is the
/// ordinal of that op's own site:
///   1. when options.include_input_sites, one Input site per used qubit, in
///      qubit order;
///   2. then, moment by moment, each op in moment order — a MeasureZ's site
///      before the op (the fault strikes before the readout), every other
///      op's site after it —
///   3. followed by one Idle site per idle qubit of the moment.
template <typename OnOp, typename OnSite>
void walk(const Circuit& circuit, const Schedule& sched, OnOp&& on_op,
          OnSite&& on_site, const ExecOptions& options = {}) {
  std::uint32_t ordinal = 0;
  auto single = [&ordinal](FaultSite::Kind kind, std::uint32_t q) {
    return FaultSite{kind, 1, {q, kNoOperand, kNoOperand}, ordinal++};
  };
  if (options.include_input_sites) {
    for (std::uint32_t q = 0; q < circuit.num_qubits(); ++q)
      if (sched.first_use[q] != ~std::size_t{0})
        on_site(single(FaultSite::Kind::Input, q));
  }
  const auto& ops = circuit.ops();
  for (std::size_t t = 0; t < sched.depth(); ++t) {
    for (const std::size_t idx : sched.moments[t]) {
      const Op& op = ops[idx];
      const FaultSite site{site_kind(op.kind),
                           static_cast<std::uint8_t>(arity(op.kind)), op.q,
                           ordinal++};
      if (op.kind == OpKind::MeasureZ) {
        on_site(site);
        on_op(idx, site.ordinal);
      } else {
        on_op(idx, site.ordinal);
        on_site(site);
      }
    }
    for (const std::uint32_t q : sched.idle[t])
      on_site(single(FaultSite::Kind::Idle, q));
  }
}

}  // namespace eqc::circuit
