// Runtime-polymorphic CSS-code interface.
//
// The paper states its constructions for "the 7-bit CSS code", but the
// machinery — classical parity checks read onto repetition ancillas, the
// N gate, measurement-free recovery — only needs a CSS code whose Z-basis
// readouts are classical codewords.  CssCode captures exactly the facts the
// gadget builders consume: block length, parity-check masks, logical
// operator supports, the transversal-gate table, and encoder circuit
// fragments.  Two implementations ship: Steane [[7,1,3]] (self-dual;
// transversal H/S/CNOT/CZ) and Reed-Muller [[15,1,3]] (transversal T/CNOT,
// H NOT transversal) — the mirror pair that shows the paper's technique is
// about completing universal sets in general.
//
// Conventions shared by both (and assumed by the generic gadgets):
//  * n <= 32; check masks are bitmasks over block positions (bit i =
//    position i);
//  * one logical qubit, logical X = X^(x)n and logical Z = Z^(x)n
//    (all-ones supports), so the logical bit of a Z-basis readout is the
//    parity of the corrected word;
//  * Z-type check masks are parity checks of a classical code containing
//    every Z-basis component of every codeword state, so they can be read
//    onto classical bits without decohering the block (the N-gate trick).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "circuit/circuit.h"
#include "codes/reed_muller.h"
#include "codes/steane.h"
#include "common/rng.h"
#include "pauli/pauli_string.h"
#include "stab/tableau.h"

namespace eqc::codes {

/// A code block of runtime-determined length (the code-generic counterpart
/// of the fixed-size Block / RmBlock).
struct CodeBlock {
  std::vector<std::uint32_t> q;

  std::size_t size() const { return q.size(); }

  static CodeBlock contiguous(std::uint32_t base, std::size_t n) {
    CodeBlock b;
    b.q.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      b.q[i] = base + static_cast<std::uint32_t>(i);
    return b;
  }
  static CodeBlock of(const Block& b) {
    CodeBlock out;
    out.q.assign(b.q.begin(), b.q.end());
    return out;
  }
  static CodeBlock of(const RmBlock& b) {
    CodeBlock out;
    out.q.assign(b.q.begin(), b.q.end());
    return out;
  }
  /// Conversions back to the fixed-size blocks (size must match).
  Block steane() const;
  RmBlock rm15() const;
};

/// Plan for mapping ANY Z-type syndrome s to an X pattern f(s) with
/// H_z f(s) = s — the contract ancilla burst repair needs: applying f(s)
/// returns a block with syndrome s to the codespace (up to a logical X,
/// which the caller's coset fix handles) no matter how many qubits the
/// burst hit.
struct ZRepairPlan {
  /// True when every nonzero syndrome already equals some single-qubit
  /// syndrome (perfect codes: Steane 2^3 - 1 = 7 positions), so the
  /// historical one-hot position decode covers the whole syndrome space.
  bool single_qubit_complete = false;
  /// Otherwise, an information-set solve: apply X on block position
  /// positions[j] iff parity(s & tags[j]).  tags[j] bit r refers to
  /// syndrome bit r.
  std::vector<std::size_t> positions;
  std::vector<unsigned> tags;
  /// Max number of positions any one syndrome bit feeds = the worst-case
  /// X weight one corrupted classical syndrome bit can inject through the
  /// repair.  The pivot set is chosen (exhaustively for small codes) to
  /// minimize this; for RM15 the optimum is 3 = its X-error correction
  /// radius, so a single classical fault stays correctable.
  std::size_t max_bit_fanout = 0;
};

class CssCode {
 public:
  virtual ~CssCode() = default;

  // --- parameters ----------------------------------------------------------
  virtual std::string_view name() const = 0;
  virtual std::size_t n() const = 0;
  virtual int distance() const = 0;

  // --- parity checks (bitmasks over block positions) -----------------------
  /// Z-type stabilizer generators (detect X errors; classical parity checks
  /// of Z-basis readouts).
  virtual std::size_t num_z_checks() const = 0;
  virtual unsigned z_check_mask(std::size_t row) const = 0;
  /// X-type stabilizer generators (detect Z errors).
  virtual std::size_t num_x_checks() const = 0;
  virtual unsigned x_check_mask(std::size_t row) const = 0;

  // --- transversal-gate table ----------------------------------------------
  /// Self-dual CSS: bit-wise H is logical H (and bit-wise CZ logical CZ).
  virtual bool self_dual() const = 0;
  /// Bit-wise Sdg realizes logical S (Steane).
  virtual bool has_transversal_s() const = 0;
  /// Bit-wise Tdg realizes logical T (RM15).
  virtual bool has_transversal_t() const = 0;

  // --- classical decoding --------------------------------------------------
  /// Bitwise syndrome of a Z-basis readout word under the Z-type checks
  /// (bit r = parity of word & z_check_mask(r)).
  unsigned z_syndrome_of_word(unsigned word) const;
  /// Syndrome patterns of single errors (nonzero and distinct for d >= 3).
  unsigned z_syndrome_of_x_error(std::size_t pos) const;
  unsigned x_syndrome_of_z_error(std::size_t pos) const;
  /// Position whose single error has this syndrome; -1 for zero/unmatched.
  int x_error_position(unsigned z_syndrome) const;
  int z_error_position(unsigned x_syndrome) const;
  /// Logical bit of a (possibly singly-corrupted) Z-basis readout:
  /// syndrome-correct, then take the parity (all-ones logical Z support).
  bool decode_logical_bit(unsigned word) const;

  // --- circuit builders ----------------------------------------------------
  virtual void append_encode_zero(circuit::Circuit& c,
                                  const CodeBlock& b) const = 0;
  virtual void append_encode_plus(circuit::Circuit& c,
                                  const CodeBlock& b) const = 0;
  void append_logical_x(circuit::Circuit& c, const CodeBlock& b) const;
  void append_logical_z(circuit::Circuit& c, const CodeBlock& b) const;
  /// Requires self_dual().
  void append_logical_h(circuit::Circuit& c, const CodeBlock& b) const;
  /// Require has_transversal_s().
  void append_logical_s(circuit::Circuit& c, const CodeBlock& b) const;
  void append_logical_sdg(circuit::Circuit& c, const CodeBlock& b) const;
  /// Require has_transversal_t().
  void append_logical_t(circuit::Circuit& c, const CodeBlock& b) const;
  void append_logical_tdg(circuit::Circuit& c, const CodeBlock& b) const;
  /// Transversal CNOT (logical CNOT on any CSS code).
  void append_logical_cnot(circuit::Circuit& c, const CodeBlock& control,
                           const CodeBlock& target) const;
  /// Requires self_dual() (bit-wise CZ = logical CZ).
  void append_logical_cz(circuit::Circuit& c, const CodeBlock& a,
                         const CodeBlock& b) const;

  // --- stabilizers and logical operators as Pauli strings ------------------
  pauli::PauliString z_stabilizer(std::size_t total, const CodeBlock& b,
                                  std::size_t row) const;
  pauli::PauliString x_stabilizer(std::size_t total, const CodeBlock& b,
                                  std::size_t row) const;
  pauli::PauliString logical_x_op(std::size_t total, const CodeBlock& b) const;
  pauli::PauliString logical_z_op(std::size_t total, const CodeBlock& b) const;

  // --- verification-only decoding (tableau oracles) ------------------------
  // Both decode tables are filled in one pass when the code is constructed:
  // masks in increasing weight, Gosper order within a weight, and the first
  // mask that reaches a syndrome is its entry.  Codes with asymmetric
  // distances (RM15: Z-distance 3, X-distance 7) correct more than one
  // error of the stronger type, so the ideal decode is the min-weight one,
  // not the single-qubit lookup; for a perfect code the two agree.
  /// Min-weight X pattern (bitmask over block positions) with the given
  /// Z-type syndrome — the ideal bounded-distance decode perfect_correct
  /// applies.  Exposed so precomputed failure oracles (frame simulator)
  /// reproduce perfect_correct's exact correction choice.
  unsigned x_fix_for_z_syndrome(unsigned sz) const;
  /// Min-weight Z pattern with the given X-type syndrome.
  unsigned z_fix_for_x_syndrome(unsigned sx) const;
  /// One round of ideal error correction: measure every generator, apply
  /// the min-weight correction of each syndrome.
  void perfect_correct(stab::Tableau& tab, const CodeBlock& b, Rng& rng) const;
  /// True iff every generator stabilizes the state.
  bool block_in_codespace(const stab::Tableau& tab, const CodeBlock& b) const;
  /// +1 (|0>_L), -1 (|1>_L), 0 (superposition) after no correction.
  double logical_z_expectation(const stab::Tableau& tab,
                               const CodeBlock& b) const;

 protected:
  /// Fills the decode tables and the repair plan from the check masks.
  /// Every implementation calls it once, at the end of its constructor;
  /// the registry singletons are function-local statics, so concurrent
  /// first use sees them built exactly once and read-only afterwards.
  void build_decode_tables();

 private:
  friend const ZRepairPlan& z_repair_plan(const CssCode& code);

  std::vector<unsigned> x_fix_;  ///< indexed by Z-type syndrome
  std::vector<unsigned> z_fix_;  ///< indexed by X-type syndrome
  ZRepairPlan repair_plan_;
};

/// Steane [[7,1,3]] (delegates every circuit fragment to codes::Steane, so
/// generic gadgets built on it are byte-identical to the hard-wired ones).
const CssCode& steane_code();
/// Reed-Muller [[15,1,3]].
const CssCode& rm15_code();
/// Lookup by name ("steane" | "rm15"); nullptr when unknown.
const CssCode* find_code(std::string_view name);
/// Names accepted by find_code, in registry order.
std::vector<std::string_view> known_code_names();

/// Appends the pivot-form GF(2) encoder of the uniform superposition over
/// span(masks): row-reduce the masks, H each pivot, fan each pivot out
/// along its reduced generator.  (Exposed for tests; rm15's |+>_L encoder.)
void append_superposition_encoder(circuit::Circuit& c, const CodeBlock& b,
                                  std::vector<unsigned> masks);

/// The code's repair plan (built with the code).
const ZRepairPlan& z_repair_plan(const CssCode& code);

/// Z-type syndromes of every weight-2 X error {p, q} with p and q inside
/// one repair-register bit's fanout set (sorted, deduplicated; empty for
/// single_qubit_complete codes).  These are exactly the even-weight bursts
/// a single classical fault in the burst repair can leave on a block, and
/// therefore the only syndromes on which the N gate's OR-based parity
/// compensation (correct for every odd-weight correctable error) must be
/// cancelled.  Each is distinct from every single-qubit and weight-3
/// syndrome whenever the code corrects weight-2 errors.
std::vector<unsigned> z_repair_even_pair_syndromes(const CssCode& code);

}  // namespace eqc::codes
