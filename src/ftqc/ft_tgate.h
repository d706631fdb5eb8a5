// Measurement-free fault-tolerant sigma_z^{1/4} (T) gate — the paper's
// Fig. 3, after [Boykin-Mor-Pulver-Roychowdhury-Vatan FOCS'99].
//
// Gadget (all operations bit-wise / transversal on the code):
//   1. transversal CNOT from the data block onto the special block holding
//      |psi_0> = (|0>_L + e^{i pi/4}|1>_L)/sqrt2;
//   2. the N gate copies the special block's logical value onto a classical
//      control register (this replaces the measurement of the original
//      protocol);
//   3. classical-register-controlled logical S on the data (bit-wise CSdg,
//      since bit-wise Sdg realizes logical S on a transversal-S code such
//      as Steane).
//
// The catch-22 the paper resolves: deferring the measurement naively would
// need Lambda(S_L) controlled by a *quantum* codeword, which is not in the
// directly fault-tolerant set; controlling bit-wise from a *classical*
// repetition register is safe because phase errors never flow from control
// to target.
//
// On a code with a TRANSVERSAL T (RM15) this whole gadget is unnecessary —
// append_transversal_t applies the logical T directly, which is what makes
// the Steane<->RM15 comparison in the scenario matrix interesting.
#pragma once

#include "circuit/circuit.h"
#include "codes/css_code.h"
#include "codes/steane.h"
#include "ftqc/ngate.h"
#include "ftqc/special_state.h"

namespace eqc::ftqc {

struct TGateRegisters {
  codes::CodeBlock data;
  codes::CodeBlock special;  ///< must hold |psi_0> when the gadget runs
  NGateAncillas n_anc;
  std::vector<std::uint32_t> control;  ///< classical register, width n
};

/// Appends the Fig. 3 gadget (assumes |psi_0> is already on `special`).
/// Requires a transversal-S code.
void append_ft_t_gadget(circuit::Circuit& circ, const codes::CssCode& code,
                        const TGateRegisters& regs,
                        const NGateOptions& options = {});

/// Gadget + in-line special-state preparation (the full measurement-free
/// T gate from |0>_L ancillas).  `ss_anc.cat/control` may reuse qubits that
/// are re-prepared later; all registers must be disjoint.
void append_ft_t_gate(circuit::Circuit& circ, const codes::CssCode& code,
                      const TGateRegisters& regs,
                      const SpecialStateAncillas& ss_anc,
                      const NGateOptions& options = {});

/// The trivial T gate on a transversal-T code (RM15): bit-wise Tdg is the
/// logical T — no ancillas, no special state, constant depth.
void append_transversal_t(circuit::Circuit& circ, const codes::CssCode& code,
                          const codes::CodeBlock& data);

/// Allocates data/special blocks, N-gate ancillas and the control register
/// in the canonical order.
TGateRegisters allocate_tgate_registers(class Layout& layout,
                                        const codes::CssCode& code,
                                        int repetitions = 3);

}  // namespace eqc::ftqc
