// ASAP scheduling of a circuit into moments (parallel time steps), and
// derivation of idle ("delay line") locations: a qubit that is alive during
// a moment but not acted on accumulates storage noise and counts as a fault
// location, exactly as in the paper's error model.
#pragma once

#include <cstddef>
#include <vector>

#include "circuit/circuit.h"

namespace eqc::circuit {

struct Schedule {
  /// moments[t] = indices into circuit.ops() executed in time step t.
  std::vector<std::vector<std::size_t>> moments;
  /// idle[t] = qubits alive but unused during time step t.
  std::vector<std::vector<std::uint32_t>> idle;
  /// First / last moment in which each qubit is used (~std::size_t{0} if
  /// never).
  std::vector<std::size_t> first_use;
  std::vector<std::size_t> last_use;

  std::size_t depth() const { return moments.size(); }
  std::size_t total_idle_locations() const;
};

/// Greedy ASAP schedule preserving program order per qubit.  Classical
/// data dependences (measure -> classically-controlled op) are respected by
/// treating classical slots like registers with a next-free time as well.
Schedule schedule(const Circuit& circuit);

}  // namespace eqc::circuit
