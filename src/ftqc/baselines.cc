#include "ftqc/baselines.h"

#include <vector>

#include "common/assert.h"

namespace eqc::ftqc {

std::uint32_t append_measured_logical_readout(circuit::Circuit& circ,
                                              const codes::CssCode& code,
                                              const codes::CodeBlock& block) {
  EQC_EXPECTS(block.size() == code.n());
  std::vector<std::uint32_t> slots;
  slots.reserve(code.n());
  for (auto q : block.q) slots.push_back(circ.measure_z(q));
  // The registry codes are function-local statics, so capturing the pointer
  // is safe for the lifetime of any circuit.
  const codes::CssCode* c = &code;
  return circ.add_classical_func([slots, c](const std::vector<bool>& bits) {
    unsigned word = 0;
    for (std::size_t i = 0; i < slots.size(); ++i)
      if (bits[slots[i]]) word |= 1u << i;
    return c->decode_logical_bit(word);
  });
}

void append_measured_t_gadget(circuit::Circuit& circ,
                              const codes::CssCode& code,
                              const codes::CodeBlock& data,
                              const codes::CodeBlock& special) {
  EQC_EXPECTS(code.has_transversal_s());
  code.append_logical_cnot(circ, data, special);
  const auto logical = append_measured_logical_readout(circ, code, special);
  // Conditioned logical S = bit-wise Sdg.
  for (std::size_t i = 0; i < code.n(); ++i) circ.sdg_if(logical, data.q[i]);
}

void append_measured_verification_ec(circuit::Circuit& circ,
                                     const codes::CssCode& code,
                                     const codes::CodeBlock& block,
                                     std::uint32_t ancilla) {
  const std::size_t mz = code.num_z_checks();
  const std::size_t mx = code.num_x_checks();
  std::vector<std::uint32_t> sz(mz), sx(mx);
  // Z- and X-type checks interleaved row by row (one shared scratch qubit).
  for (std::size_t row = 0; row < std::max(mz, mx); ++row) {
    if (row < mz) {
      // Z-type check (simple, non-FT extraction — verification is
      // noiseless).
      const unsigned mask = code.z_check_mask(row);
      circ.prep_z(ancilla);
      for (std::size_t i = 0; i < code.n(); ++i)
        if (mask & (1u << i)) circ.cnot(block.q[i], ancilla);
      sz[row] = circ.measure_z(ancilla);
    }
    if (row < mx) {
      // X-type check.
      const unsigned mask = code.x_check_mask(row);
      circ.prep_z(ancilla);
      circ.h(ancilla);
      for (std::size_t i = 0; i < code.n(); ++i)
        if (mask & (1u << i)) circ.cnot(ancilla, block.q[i]);
      circ.h(ancilla);
      sx[row] = circ.measure_z(ancilla);
    }
  }
  for (std::size_t i = 0; i < code.n(); ++i) {
    const unsigned pz = code.z_syndrome_of_x_error(i);
    const auto fz =
        circ.add_classical_func([sz, pz](const std::vector<bool>& bits) {
          unsigned s = 0;
          for (std::size_t row = 0; row < sz.size(); ++row)
            if (bits[sz[row]]) s |= 1u << row;
          return s == pz;
        });
    circ.x_if(fz, block.q[i]);
    const unsigned px = code.x_syndrome_of_z_error(i);
    const auto fx =
        circ.add_classical_func([sx, px](const std::vector<bool>& bits) {
          unsigned s = 0;
          for (std::size_t row = 0; row < sx.size(); ++row)
            if (bits[sx[row]]) s |= 1u << row;
          return s == px;
        });
    circ.z_if(fx, block.q[i]);
  }
}

void append_measured_toffoli_gadget_bare(circuit::Circuit& circ,
                                         const BareToffoliRegs& r) {
  circ.cnot(r.a, r.x);
  circ.cnot(r.b, r.y);
  circ.cnot(r.z, r.c);
  circ.h(r.z);

  const auto m1 = circ.measure_z(r.x);
  const auto m2 = circ.measure_z(r.y);
  const auto m3 = circ.measure_z(r.z);
  const auto f1 = circ.cbit_func(m1);
  const auto f2 = circ.cbit_func(m2);
  const auto f3 = circ.cbit_func(m3);
  const auto f12 = circ.add_classical_func(
      [m1, m2](const std::vector<bool>& bits) { return bits[m1] && bits[m2]; });

  // Phase corrections first (pre-correction A, B, C values), then values,
  // then cross terms — mirroring the measurement-free gadget exactly.
  circ.z_if(f3, r.c);
  circ.cz_if(f3, r.a, r.b);
  circ.x_if(f1, r.a);
  circ.x_if(f2, r.b);
  circ.cnot_if(f1, r.b, r.c);
  circ.cnot_if(f2, r.a, r.c);
  circ.x_if(f12, r.c);
}

}  // namespace eqc::ftqc
