// The paper's N gate (Fig. 1): a fault-tolerant quantum-to-classical
// controlled-NOT that copies the logical basis value of an encoded quantum
// ancilla onto a classical repetition-code register, WITHOUT measurement.
//
//   |0>_L (x) |q>  ->  |0>_L (x) |q>
//   |0>_L (x) |q^1(bar)> ... (Eq. (1) of the paper)
//
// One repetition (N1) computes into a fresh target bit
//     b  ^=  parity(block)  XOR  OR(syndrome bits)
// where the syndrome bits are the code's classical Z-type parity checks of
// the block (the three Hamming checks for Steane, ten checks for RM15).
// The OR-correction makes the copy immune to any single bit error already
// present on the quantum ancilla; repeating N1 2k+1 times and majority
// voting protects against faults inside N1 itself.  Phase errors flow only
// backwards (classical ancilla -> quantum ancilla), never into quantum data
// that the classical register later controls — the paper's key observation.
//
// The builders are generic over codes::CssCode; the Block-based overloads
// keep the historical Steane signatures and emit byte-identical circuits
// (the golden-equivalence contract).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "circuit/circuit.h"
#include "codes/css_code.h"
#include "codes/steane.h"

namespace eqc::ftqc {

struct NGateAncillas {
  /// 2k+1 fresh target bits, one per repetition.
  std::vector<std::uint32_t> copies;
  /// Syndrome-check bits, one per Z-type check (re-prepared every
  /// repetition).
  std::vector<std::uint32_t> syndrome;
  /// Work bits for the OR gadget: one fewer than the syndrome width
  /// (re-prepared every repetition).
  std::vector<std::uint32_t> work;
  /// Counter scratch for the 2k+1 >= 5 majority vote (see
  /// codes::majority_counter_scratch); empty for repetitions <= 3.
  std::vector<std::uint32_t> maj_scratch;
};

struct NGateOptions {
  /// Number of N1 repetitions: any odd 2k+1 >= 1.  The paper's 3 suffices
  /// for k = 1 under its per-location single-qubit fault model; 5 (k' = 2,
  /// with an independent majority counter per output bit) also absorbs the
  /// correlated two-qubit gate faults documented in E1(b').
  int repetitions = 3;
  /// Ablation switch: disable the syndrome check inside N1.  Without it a
  /// single pre-existing bit error on the quantum ancilla corrupts *every*
  /// repetition and defeats the majority vote.
  bool syndrome_check = true;
};

/// One repetition of the Fig. 1 circuit; prepares target/syndrome/work to
/// |0> itself, so ancillas can be reused across repetitions.
void append_n1(circuit::Circuit& circ, const codes::CssCode& code,
               const codes::CodeBlock& source, std::uint32_t target,
               std::span<const std::uint32_t> syndrome,
               std::span<const std::uint32_t> work, bool syndrome_check);

/// Full N gate: repetitions of N1 followed by a majority vote copied into
/// every bit of `out` ("copy the result into seven bits").  `out` may alias
/// nothing in `anc`; out bits are prepared to |0> here.
void append_ngate(circuit::Circuit& circ, const codes::CssCode& code,
                  const codes::CodeBlock& source,
                  std::span<const std::uint32_t> out, const NGateAncillas& anc,
                  const NGateOptions& options = {});

/// Allocates the ancillas append_ngate needs for `code`.
NGateAncillas allocate_ngate_ancillas(class Layout& layout,
                                      const codes::CssCode& code,
                                      int repetitions = 3);

}  // namespace eqc::ftqc
