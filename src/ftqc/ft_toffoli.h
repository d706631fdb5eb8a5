// Measurement-free fault-tolerant Toffoli — the paper's Fig. 4, a
// measurement-free rendering of Shor's FOCS'96 construction (as drawn by
// Preskill).
//
// Resource: |AND> = (|000> + |010> + |100> + |111>)_L / 2 on blocks A,B,C.
// Gadget, for data blocks X,Y,Z (everything transversal / bit-wise):
//   1. CNOT_L(A -> X), CNOT_L(B -> Y), CNOT_L(Z -> C), H_L(Z);
//   2. N copies the (transformed) X, Y, Z blocks onto classical registers
//      M1, M2, M3 — the three deferred measurements;
//   3. corrections, all controlled by classical registers:
//        phase:  Lambda(Z_L)(M3 -> C),  Lambda(CZ_L)(M3 -> A,B);
//        value:  Lambda(X_L)(M1 -> A),  Lambda(X_L)(M2 -> B);
//        cross:  Lambda(CNOT_L)(M1 -> B,C), Lambda(CNOT_L)(M2 -> A,C),
//                M12 = M1 AND M2 (classical Toffolis), Lambda(X_L)(M12 -> C).
// Outputs appear on A, B, C; the consumed data blocks and the classical
// registers are junk in tensor product with the outputs.
//
// The classical AND (M12) is exactly where the catch-22 would bite: deferred
// naively it would need a quantum Toffoli, but on classical repetition
// registers it is ordinary reversible logic (paper Secs. 4.5, 5).
#pragma once

#include "circuit/circuit.h"
#include "codes/css_code.h"
#include "codes/steane.h"
#include "ftqc/ngate.h"
#include "ftqc/special_state.h"

namespace eqc::ftqc {

// --- Logical-level (one qubit per block) version for exact verification ---

struct BareToffoliRegs {
  std::uint32_t a, b, c;     ///< |AND> resource / output qubits
  std::uint32_t x, y, z;     ///< data inputs (consumed)
  std::uint32_t m1, m2, m3;  ///< deferred-measurement bits
  std::uint32_t m12;         ///< classical AND of m1, m2
};

/// |AND> on three bare qubits: H, H, CCX.
void append_bare_and_state(circuit::Circuit& circ, std::uint32_t a,
                           std::uint32_t b, std::uint32_t c);

/// The Fig. 4 gadget with one qubit per block (assumes |AND> on a,b,c).
void append_bare_toffoli_gadget(circuit::Circuit& circ,
                                const BareToffoliRegs& regs);

// --- Full-code version (built for the fault-propagation analysis) ---------

struct CodedToffoliRegs {
  codes::CodeBlock a, b, c;  ///< |AND> blocks -> outputs
  codes::CodeBlock x, y, z;  ///< data blocks (consumed)
  SpecialStateAncillas ss_anc;
  NGateAncillas n_anc;  ///< reused for all three N gates
  std::vector<std::uint32_t> m1, m2, m3, m12;  ///< width-n classical regs
};

/// Appends |AND> preparation (Fig. 2 scheme) plus the Fig. 4 gadget on
/// encoded blocks of a self-dual code (bit-wise CZ/CCZ must be logical).
/// Runs on the state-vector backend only in principle (42+ qubits); its
/// purpose here is exhaustive error-propagation analysis (see src/analysis).
void append_coded_toffoli(circuit::Circuit& circ, const codes::CssCode& code,
                          const CodedToffoliRegs& regs,
                          const NGateOptions& options = {});

/// The gadget only (assumes |AND> already on a,b,c).
void append_coded_toffoli_gadget(circuit::Circuit& circ,
                                 const codes::CssCode& code,
                                 const CodedToffoliRegs& regs,
                                 const NGateOptions& options = {});

/// Allocates the six blocks, special-state + N-gate ancillas and the four
/// classical registers in the canonical order.
CodedToffoliRegs allocate_coded_toffoli_registers(class Layout& layout,
                                                  const codes::CssCode& code,
                                                  int repetitions = 3);

}  // namespace eqc::ftqc
