#include "ftqc/ft_toffoli.h"

#include "common/assert.h"
#include "ftqc/layout.h"

namespace eqc::ftqc {

void append_bare_and_state(circuit::Circuit& circ, std::uint32_t a,
                           std::uint32_t b, std::uint32_t c) {
  circ.h(a);
  circ.h(b);
  circ.ccx(a, b, c);  // (1/2) sum_{a,b} |a, b, ab>
}

void append_bare_toffoli_gadget(circuit::Circuit& circ,
                                const BareToffoliRegs& r) {
  // 1. Entangle data with the resource; rotate old z into the X basis.
  circ.cnot(r.a, r.x);
  circ.cnot(r.b, r.y);
  circ.cnot(r.z, r.c);
  circ.h(r.z);

  // 2. Deferred measurements: copy the transformed data onto m bits.
  circ.prep_z(r.m1);
  circ.prep_z(r.m2);
  circ.prep_z(r.m3);
  circ.cnot(r.x, r.m1);
  circ.cnot(r.y, r.m2);
  circ.cnot(r.z, r.m3);

  // 3a. Phase corrections (must precede the value corrections: they use the
  //     pre-correction A, B, C values).
  circ.cz(r.m3, r.c);
  circ.ccz(r.m3, r.a, r.b);

  // 3b. Value corrections.
  circ.cnot(r.m1, r.a);
  circ.cnot(r.m2, r.b);

  // 3c. Cross terms; the classical AND uses a classical Toffoli.
  circ.ccx(r.m1, r.b, r.c);
  circ.ccx(r.m2, r.a, r.c);
  circ.prep_z(r.m12);
  circ.ccx(r.m1, r.m2, r.m12);
  circ.cnot(r.m12, r.c);
}

void append_coded_toffoli_gadget(circuit::Circuit& circ,
                                 const codes::CssCode& code,
                                 const CodedToffoliRegs& r,
                                 const NGateOptions& options) {
  // Bit-wise CZ/CCZ must be logical, i.e. the code must be self-dual.
  EQC_EXPECTS(code.self_dual());
  const std::size_t n = code.n();
  EQC_EXPECTS(r.m1.size() == n && r.m2.size() == n && r.m3.size() == n &&
              r.m12.size() == n);

  // 1. Transversal entangling layer.
  code.append_logical_cnot(circ, r.a, r.x);
  code.append_logical_cnot(circ, r.b, r.y);
  code.append_logical_cnot(circ, r.z, r.c);
  code.append_logical_h(circ, r.z);

  // 2. Three N gates (measurement replacements).
  append_ngate(circ, code, r.x, r.m1, r.n_anc, options);
  append_ngate(circ, code, r.y, r.m2, r.n_anc, options);
  append_ngate(circ, code, r.z, r.m3, r.n_anc, options);

  // 3a. Phase corrections (bit-wise CZ = logical CZ on a self-dual code).
  for (std::size_t i = 0; i < n; ++i) circ.cz(r.m3[i], r.c.q[i]);
  for (std::size_t i = 0; i < n; ++i) circ.ccz(r.m3[i], r.a.q[i], r.b.q[i]);

  // 3b. Value corrections.
  for (std::size_t i = 0; i < n; ++i) circ.cnot(r.m1[i], r.a.q[i]);
  for (std::size_t i = 0; i < n; ++i) circ.cnot(r.m2[i], r.b.q[i]);

  // 3c. Cross terms; M12 is computed with *classical* Toffolis — the gate
  //     the catch-22 said we could not have, made harmless by the classical
  //     basis (paper Sec. 5).
  for (std::size_t i = 0; i < n; ++i) circ.ccx(r.m1[i], r.b.q[i], r.c.q[i]);
  for (std::size_t i = 0; i < n; ++i) circ.ccx(r.m2[i], r.a.q[i], r.c.q[i]);
  for (auto q : r.m12) circ.prep_z(q);
  for (std::size_t i = 0; i < n; ++i) circ.ccx(r.m1[i], r.m2[i], r.m12[i]);
  for (std::size_t i = 0; i < n; ++i) circ.cnot(r.m12[i], r.c.q[i]);
}

void append_coded_toffoli(circuit::Circuit& circ, const codes::CssCode& code,
                          const CodedToffoliRegs& r,
                          const NGateOptions& options) {
  append_and_state_prep(circ, code, r.a, r.b, r.c, r.ss_anc,
                        options.repetitions);
  append_coded_toffoli_gadget(circ, code, r, options);
}

CodedToffoliRegs allocate_coded_toffoli_registers(Layout& layout,
                                                  const codes::CssCode& code,
                                                  int repetitions) {
  CodedToffoliRegs regs;
  regs.a = layout.block(code);
  regs.b = layout.block(code);
  regs.c = layout.block(code);
  regs.x = layout.block(code);
  regs.y = layout.block(code);
  regs.z = layout.block(code);
  regs.ss_anc =
      allocate_special_state_ancillas(layout, code.n(), repetitions);
  regs.n_anc = allocate_ngate_ancillas(layout, code, repetitions);
  regs.m1 = layout.reg(code.n());
  regs.m2 = layout.reg(code.n());
  regs.m3 = layout.reg(code.n());
  regs.m12 = layout.reg(code.n());
  return regs;
}

}  // namespace eqc::ftqc
