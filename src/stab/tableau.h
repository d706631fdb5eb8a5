// Aaronson-Gottesman (CHP) stabilizer tableau simulator.
//
// Simulates Clifford circuits (H, S, S+, CNOT, CZ, SWAP, Paulis) plus
// Z-basis measurement in O(n^2) per measurement, scaling to thousands of
// qubits.  This is the engine behind the fault-injection Monte Carlo and the
// exhaustive fault-pair enumeration: every circuit in the paper's Figures 1
// and Section 5, and the Clifford skeleton of Figures 2-4, runs here.
//
// Internal representation follows the CHP paper: rows 0..n-1 are
// destabilizers, rows n..2n-1 stabilizers; a row's (x,z) = (1,1) denotes Y,
// and r holds the +/- sign bit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "pauli/pauli_string.h"

namespace eqc::stab {

class Tableau {
 public:
  /// |0...0> on `num_qubits` qubits.
  explicit Tableau(std::size_t num_qubits);

  std::size_t num_qubits() const { return n_; }

  // --- Clifford gates ------------------------------------------------------
  void h(std::size_t q);
  void s(std::size_t q);
  void sdg(std::size_t q);
  void x(std::size_t q);
  void y(std::size_t q);
  void z(std::size_t q);
  void cnot(std::size_t control, std::size_t target);
  void cz(std::size_t a, std::size_t b);
  void swap(std::size_t a, std::size_t b);

  /// Applies a Pauli operator (error injection). Phases of `p` only affect
  /// the state's global phase, which a tableau does not track.
  void apply_pauli(const pauli::PauliString& p);

  // --- Measurement ----------------------------------------------------------
  /// Projective Z measurement with collapse.
  bool measure(std::size_t q, Rng& rng);
  /// True iff a Z measurement of q would have a deterministic outcome.
  bool is_deterministic_z(std::size_t q) const;
  /// Outcome of a deterministic Z measurement (precondition: deterministic).
  bool deterministic_z_value(std::size_t q) const;
  /// <Z_q>: +1/-1 when deterministic, else 0.
  double expectation_z(std::size_t q) const;
  /// Collapse q to |0> (measure, flip if needed); outcome discarded.
  void reset(std::size_t q, Rng& rng);

  /// Measures an arbitrary Hermitian Pauli observable `p` (phase must be
  /// i^0 or i^2).  Returns m such that the post-measurement state is
  /// stabilized by (-1)^m * p.  Used by verification oracles to read
  /// syndromes and logical operators directly.
  bool measure_pauli(const pauli::PauliString& p, Rng& rng);
  /// <P>: +1/-1 when P (or -P) stabilizes the state, else 0.
  double expectation_pauli(const pauli::PauliString& p) const;

  // --- Introspection (used by tests and the code library) ------------------
  /// Stabilizer generator i (0 <= i < n), sign folded into phase (0 or 2).
  pauli::PauliString stabilizer(std::size_t i) const;
  pauli::PauliString destabilizer(std::size_t i) const;
  /// True iff `p` (with its sign; i^1/i^3 phases are rejected) stabilizes
  /// the current state.
  bool state_is_stabilized_by(const pauli::PauliString& p) const;
  /// Validates the internal symplectic invariants; throws on corruption.
  void check_invariants() const;

  /// Index i (0 <= i < n) of the first stabilizer generator anticommuting
  /// with Z_q (an X or Y at q) — the pivot row measure() would collapse —
  /// or n when none exists (Z_q deterministic).  Lets a caller capture
  /// stabilizer(i) *before* a random measurement rewrites it.
  std::size_t z_measure_pivot(std::size_t q) const;

 private:
  std::size_t words() const { return (n_ + 63) / 64; }
  /// f(x_words, z_words, sign) for every destabilizer and stabilizer row.
  template <class F>
  void for_each_row(F f);
  bool xbit(std::size_t row, std::size_t q) const;
  bool zbit(std::size_t row, std::size_t q) const;
  void set_xbit(std::size_t row, std::size_t q, bool v);
  void set_zbit(std::size_t row, std::size_t q, bool v);
  /// row_h *= row_i (CHP "rowmult" with exact sign tracking).
  void row_mult(std::size_t h, std::size_t i);
  void row_copy(std::size_t dst, std::size_t src);
  void row_clear(std::size_t row);
  pauli::PauliString row_to_pauli(std::size_t row) const;
  /// +1 if p stabilizes the state, -1 if -p does, 0 otherwise (including a
  /// non-Hermitian p); computed on the row words.
  int stabilizer_sign(const pauli::PauliString& p) const;

  std::size_t n_;
  // 2n+1 rows: destabilizers, stabilizers, scratch.
  std::vector<std::vector<std::uint64_t>> x_;
  std::vector<std::vector<std::uint64_t>> z_;
  std::vector<std::uint8_t> r_;
};

}  // namespace eqc::stab
