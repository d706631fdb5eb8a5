#include "ftqc/ft_tgate.h"

#include "common/assert.h"
#include "ftqc/layout.h"

namespace eqc::ftqc {

void append_ft_t_gadget(circuit::Circuit& circ, const codes::CssCode& code,
                        const TGateRegisters& regs,
                        const NGateOptions& options) {
  EQC_EXPECTS(code.has_transversal_s());
  EQC_EXPECTS(regs.control.size() == code.n());

  // 1. Transversal CNOT: data block controls, special block targets.
  code.append_logical_cnot(circ, regs.data, regs.special);

  // 2. Measurement replacement: N copies the special block's logical value
  //    onto the classical control register.
  append_ngate(circ, code, regs.special, regs.control, regs.n_anc, options);

  // 3. Classically controlled logical S on the data: bit-wise CSdg
  //    (bit-wise Sdg = logical S on a transversal-S code).
  for (std::size_t i = 0; i < code.n(); ++i)
    circ.csdg(regs.control[i], regs.data.q[i]);
}

void append_ft_t_gate(circuit::Circuit& circ, const codes::CssCode& code,
                      const TGateRegisters& regs,
                      const SpecialStateAncillas& ss_anc,
                      const NGateOptions& options) {
  append_t_state_prep(circ, code, regs.special, ss_anc, options.repetitions);
  append_ft_t_gadget(circ, code, regs, options);
}

void append_transversal_t(circuit::Circuit& circ, const codes::CssCode& code,
                          const codes::CodeBlock& data) {
  code.append_logical_t(circ, data);
}

TGateRegisters allocate_tgate_registers(Layout& layout,
                                        const codes::CssCode& code,
                                        int repetitions) {
  TGateRegisters regs;
  regs.data = layout.block(code);
  regs.special = layout.block(code);
  regs.n_anc = allocate_ngate_ancillas(layout, code, repetitions);
  regs.control = layout.reg(code.n());
  return regs;
}

}  // namespace eqc::ftqc
