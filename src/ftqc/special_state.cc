#include "ftqc/special_state.h"

#include "codes/classical_logic.h"
#include "ftqc/cat.h"
#include "common/assert.h"
#include "ftqc/layout.h"

namespace eqc::ftqc {

void append_special_state_projection(circuit::Circuit& circ,
                                     const SpecialStateOps& ops,
                                     const SpecialStateAncillas& anc,
                                     int repetitions) {
  EQC_EXPECTS(repetitions >= 1 && repetitions % 2 == 1);
  EQC_EXPECTS(anc.cat.size() == ops.width);
  EQC_EXPECTS(anc.control.size() == ops.width);
  EQC_EXPECTS(anc.parity.size() >= static_cast<std::size_t>(repetitions));
  EQC_EXPECTS(ops.controlled_u != nullptr && ops.controlled_flip != nullptr);

  EQC_EXPECTS(anc.verify.empty() || anc.verify.size() + 1 == anc.cat.size());
  for (int r = 0; r < repetitions; ++r) {
    // Fresh cat state.  The parity-bit majority below absorbs cat faults'
    // effect on the PARITY; the optional verification additionally stops
    // mid-fan-out bursts from depositing multi-qubit errors through the
    // cat-controlled couplings.
    if (anc.verify.empty())
      append_cat_prep(circ, anc.cat);
    else
      append_verified_cat(circ, anc.cat, anc.verify);

    // Cat-controlled bit-wise Lambda(U).
    for (std::size_t i = 0; i < ops.width; ++i)
      ops.controlled_u(circ, anc.cat[i], i);
    if (ops.phase_fix) ops.phase_fix(circ, anc.cat);

    // Bit-wise H, then the cat's parity carries the eigenvalue bit.
    for (auto q : anc.cat) circ.h(q);
    circ.prep_z(anc.parity[static_cast<std::size_t>(r)]);
    for (auto q : anc.cat)
      circ.cnot(q, anc.parity[static_cast<std::size_t>(r)]);
  }

  // Majority vote into the classical control register, then the controlled
  // bit-wise U_flip turns |phi_1> into |phi_0> everywhere.
  for (auto q : anc.control) circ.prep_z(q);
  if (repetitions == 1) {
    codes::append_fanout(circ, anc.parity[0], anc.control);
  } else if (repetitions == 3) {
    codes::append_majority3(circ, anc.parity[0], anc.parity[1], anc.parity[2],
                            anc.control);
  } else {
    // One independent population count per control bit (same independence
    // argument as the N gate's wide vote).
    for (auto q : anc.control)
      codes::append_majority_counter(circ, anc.parity, repetitions,
                                     anc.maj_scratch, q);
  }
  for (std::size_t i = 0; i < ops.width; ++i)
    ops.controlled_flip(circ, anc.control[i], i);
}

SpecialStateOps t_state_ops(const codes::CssCode& code,
                            const codes::CodeBlock& special) {
  EQC_EXPECTS(code.has_transversal_s() && special.size() == code.n());
  SpecialStateOps ops;
  ops.width = code.n();
  // U = e^{i pi/4} X_L Sdg_L; logical Sdg is bit-wise S on a transversal-S
  // code, so the controlled bit-wise factors are CS then CNOT, and the
  // global phase e^{i pi/4} is a T gate on one cat qubit.
  ops.controlled_u = [special](circuit::Circuit& c, std::uint32_t cat,
                               std::size_t i) {
    c.cs(cat, special.q[i]);
    c.cnot(cat, special.q[i]);
  };
  ops.phase_fix = [](circuit::Circuit& c,
                     std::span<const std::uint32_t> cat) { c.t(cat[0]); };
  // U_flip = Z_L = bit-wise Z.
  ops.controlled_flip = [special](circuit::Circuit& c, std::uint32_t ctl,
                                  std::size_t i) { c.cz(ctl, special.q[i]); };
  return ops;
}

void append_t_state_prep(circuit::Circuit& circ, const codes::CssCode& code,
                         const codes::CodeBlock& special,
                         const SpecialStateAncillas& anc, int repetitions) {
  code.append_encode_zero(circ, special);
  append_special_state_projection(circ, t_state_ops(code, special), anc,
                                  repetitions);
}

SpecialStateOps and_state_ops(const codes::CssCode& code,
                              const codes::CodeBlock& a,
                              const codes::CodeBlock& b,
                              const codes::CodeBlock& c) {
  EQC_EXPECTS(code.self_dual() && a.size() == code.n() &&
              b.size() == code.n() && c.size() == code.n());
  SpecialStateOps ops;
  ops.width = code.n();
  // U = Lambda(sigma_z) (x) sigma_z logically; bit-wise CZ is logical CZ and
  // bit-wise Z is logical Z, so the cat-controlled factors are
  // CCZ(cat, a_i, b_i) and CZ(cat, c_i).  U has no global phase.
  ops.controlled_u = [a, b, c](circuit::Circuit& circ, std::uint32_t cat,
                               std::size_t i) {
    circ.ccz(cat, a.q[i], b.q[i]);
    circ.cz(cat, c.q[i]);
  };
  ops.phase_fix = nullptr;
  // U_flip = I (x) I (x) Z_L.
  ops.controlled_flip = [c](circuit::Circuit& circ, std::uint32_t ctl,
                            std::size_t i) { circ.cz(ctl, c.q[i]); };
  return ops;
}

void append_and_state_prep(circuit::Circuit& circ, const codes::CssCode& code,
                           const codes::CodeBlock& a, const codes::CodeBlock& b,
                           const codes::CodeBlock& c,
                           const SpecialStateAncillas& anc, int repetitions) {
  code.append_encode_plus(circ, a);
  code.append_encode_plus(circ, b);
  code.append_encode_plus(circ, c);
  append_special_state_projection(circ, and_state_ops(code, a, b, c), anc,
                                  repetitions);
}

SpecialStateAncillas allocate_special_state_ancillas(Layout& layout,
                                                     std::size_t width,
                                                     int repetitions) {
  SpecialStateAncillas anc;
  anc.cat = layout.reg(width);
  anc.parity = layout.reg(static_cast<std::size_t>(repetitions));
  anc.control = layout.reg(width);
  if (repetitions >= 5)
    anc.maj_scratch = layout.reg(codes::majority_counter_scratch(repetitions));
  return anc;
}

}  // namespace eqc::ftqc
