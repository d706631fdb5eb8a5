// Measurement-free preparation of special states (the paper's Fig. 2).
//
// Given a bit-wise logical operator U (x)n with +-1 eigenvectors
// |phi_0>, |phi_1>, the scheme projects any  alpha|phi_0> + beta|phi_1>
// onto |phi_0> without measurement:
//
//   repeat 2k+1 times (fresh cat state + fresh parity bit each time):
//     * cat-controlled bit-wise Lambda(U),
//     * bit-wise H on the cat,
//     * parity of the cat into the parity bit;
//   majority-vote the parity bits into a classical control register;
//   control-register-controlled bit-wise U_flip  (|phi_1> -> |phi_0>).
//
// The concrete instantiations used in the paper:
//  * the T-magic state |psi_0> = (|0>_L + e^{i pi/4}|1>_L)/sqrt2 with
//    U = e^{i pi/4} X_L Sdg_L and U_flip = Z_L        (for Fig. 3), and
//  * the |AND> state with U = Lambda(sigma_z) (x) sigma_z and
//    U_flip = I (x) I (x) sigma_z                      (for Fig. 4).
//
// Both instantiations rely on code structure: the T-state needs logical
// Sdg to be bit-wise S (a transversal-S code such as Steane), the |AND>
// state needs bit-wise CZ to be logical CZ (a self-dual code).  The
// code-generic entry points check these capabilities.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "circuit/circuit.h"
#include "codes/css_code.h"
#include "codes/steane.h"

namespace eqc::ftqc {

/// Callbacks describing the bit-wise structure of U and U_flip.
struct SpecialStateOps {
  /// Code length n (7 for the Steane code); the cat and flip-control
  /// registers have this width.
  std::size_t width = 7;
  /// Appends the cat_bit-controlled u acting on code position i.
  std::function<void(circuit::Circuit&, std::uint32_t cat_bit, std::size_t i)>
      controlled_u;
  /// Appends the global-phase factor of U onto the cat register (empty if
  /// U has none).
  std::function<void(circuit::Circuit&, std::span<const std::uint32_t> cat)>
      phase_fix;
  /// Appends the control-bit-controlled U_flip on code position i.
  std::function<void(circuit::Circuit&, std::uint32_t control_bit,
                     std::size_t i)>
      controlled_flip;
};

struct SpecialStateAncillas {
  std::vector<std::uint32_t> cat;      ///< width; re-prepared per repetition
  std::vector<std::uint32_t> parity;   ///< one bit per repetition
  std::vector<std::uint32_t> control;  ///< width; majority-voted parity
  /// Optional (width-1) verification bits for measurement-free cat repair
  /// (see ftqc/cat.h).  Empty disables verification — the configuration
  /// Fig. 2 literally draws, in which one mid-fan-out fault can corrupt
  /// several special-block qubits at once (quantified in E2).
  std::vector<std::uint32_t> verify;
  /// Counter scratch for the 2k+1 >= 5 parity majority vote (see
  /// codes::majority_counter_scratch); empty for repetitions <= 3.
  std::vector<std::uint32_t> maj_scratch;
};

/// Appends the Fig. 2 projection circuit for any odd 2k+1 repetitions.
/// The input state must already be on the special register the callbacks
/// address.
void append_special_state_projection(circuit::Circuit& circ,
                                     const SpecialStateOps& ops,
                                     const SpecialStateAncillas& anc,
                                     int repetitions = 3);

/// Ops descriptor for the T-state on a transversal-S code.
SpecialStateOps t_state_ops(const codes::CssCode& code,
                            const codes::CodeBlock& special);

/// Complete preparation of the T-magic state |psi_0> on `special`:
/// encodes |0>_L and projects.  (|0>_L = (|psi_0> + |psi_1>)/sqrt2.)
void append_t_state_prep(circuit::Circuit& circ, const codes::CssCode& code,
                         const codes::CodeBlock& special,
                         const SpecialStateAncillas& anc, int repetitions = 3);

/// Ops descriptor for the |AND> state on three blocks of a self-dual code
/// (Fig. 4's resource).
SpecialStateOps and_state_ops(const codes::CssCode& code,
                              const codes::CodeBlock& a,
                              const codes::CodeBlock& b,
                              const codes::CodeBlock& c);

/// Complete preparation of |AND> on blocks a, b, c: encodes |+>_L^3 and
/// projects.  (|AND> + |AND-bar> = (H (x) H (x) H)|000>_L.)
void append_and_state_prep(circuit::Circuit& circ, const codes::CssCode& code,
                           const codes::CodeBlock& a, const codes::CodeBlock& b,
                           const codes::CodeBlock& c,
                           const SpecialStateAncillas& anc,
                           int repetitions = 3);

SpecialStateAncillas allocate_special_state_ancillas(class Layout& layout,
                                                     std::size_t width = 7,
                                                     int repetitions = 3);

}  // namespace eqc::ftqc
