#include "circuit/schedule.h"

#include <algorithm>

#include "common/assert.h"

namespace eqc::circuit {

std::size_t Schedule::total_idle_locations() const {
  std::size_t n = 0;
  for (const auto& qs : idle) n += qs.size();
  return n;
}

Schedule schedule(const Circuit& circuit) {
  const std::size_t nq = circuit.num_qubits();
  const std::size_t kNever = ~std::size_t{0};

  Schedule out;
  out.first_use.assign(nq, kNever);
  out.last_use.assign(nq, kNever);

  std::vector<std::size_t> qubit_free(nq, 0);
  // Classical slots become available one step after the measurement that
  // writes them, and a classically controlled op conservatively depends on
  // every slot written so far.  Every measurement writes a fresh slot
  // (Circuit::measure_z), so that dependence is the running maximum of the
  // ready times.
  std::size_t cbits_ready = 0;

  const auto& ops = circuit.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    std::size_t slot = 0;
    for (int k = 0; k < arity(op.kind); ++k)
      slot = std::max(slot, qubit_free[op.q[k]]);
    if (is_classically_controlled(op.kind))
      slot = std::max(slot, cbits_ready);
    if (out.moments.size() <= slot) out.moments.resize(slot + 1);
    out.moments[slot].push_back(i);
    for (int k = 0; k < arity(op.kind); ++k) {
      const std::uint32_t q = op.q[k];
      qubit_free[q] = slot + 1;
      if (out.first_use[q] == kNever) out.first_use[q] = slot;
      out.last_use[q] = slot;
    }
    if (op.kind == OpKind::MeasureZ)
      cbits_ready = std::max(cbits_ready, slot + 1);
  }

  // Idle locations: alive (between first and last use) but unused.
  // used_in[q] = the last moment that acted on q, stamped moment by moment;
  // each moment's list is gathered in one reused buffer and copied out at
  // its exact size.
  out.idle.resize(out.moments.size());
  std::vector<std::size_t> used_in(nq, kNever);
  std::vector<std::uint32_t> idle_now;
  for (std::size_t t = 0; t < out.moments.size(); ++t) {
    for (std::size_t idx : out.moments[t])
      for (int k = 0; k < arity(ops[idx].kind); ++k) used_in[ops[idx].q[k]] = t;
    idle_now.clear();
    for (std::uint32_t q = 0; q < nq; ++q)  // never used: first_use = kNever
      if (t > out.first_use[q] && t < out.last_use[q] && used_in[q] != t)
        idle_now.push_back(q);
    out.idle[t].assign(idle_now.begin(), idle_now.end());
  }
  return out;
}

}  // namespace eqc::circuit
