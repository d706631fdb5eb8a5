#include "analysis/frame_oracle.h"

#include <array>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/tab_backend.h"
#include "common/assert.h"

namespace eqc::analysis {

frame::FrameProgram make_frame_program(const FaultExperiment& ex) {
  return frame::FrameProgram(ex.num_qubits, ex.prep, ex.gadget, ex.seed);
}

frame::BatchOracle make_generic_frame_oracle(
    const FaultExperiment& ex, const frame::FrameProgram& prog) {
  // Captured by value: the oracle must not dangle when built/prog go away.
  return [ref = prog.reference_tableau(), failed = ex.failed,
          n = ex.num_qubits](const frame::FrameBatch& b) -> std::uint64_t {
    std::uint64_t word = 0;
    for (unsigned l = 0; l < b.count(); ++l) {
      stab::Tableau tab = ref;
      tab.apply_pauli(b.lane_frame(l));
      circuit::TabBackend backend(n, b.lane_backend_rng(l));
      backend.tableau() = std::move(tab);
      circuit::ExecResult r;
      r.cbits = b.lane_cbits(l);
      if (failed(backend, r)) word |= std::uint64_t{1} << l;
    }
    return word;
  };
}

frame::BatchOracle make_frame_oracle(const std::string& gadget,
                                     const BuiltGadget& built,
                                     const frame::FrameProgram& prog) {
  const stab::Tableau& ref = prog.reference_tableau();
  const codes::CssCode& code = *built.code;
  const bool is_ngate = gadget == "ngate";

  // Soundness gates for the closed form.  A trial is F |ref> with F a
  // Pauli, so when the reference block is a codeword with a definite
  // logical Z value, every lane's perfect_correct verdict is a parity
  // function of the lane's FX bits; anything else falls back.
  if (!code.block_in_codespace(ref, built.main_block))
    return make_generic_frame_oracle(built.ex, prog);
  const double ref_e = code.logical_z_expectation(ref, built.main_block);
  if (ref_e == 0.0) return make_generic_frame_oracle(built.ex, prog);
  const bool ref_logical = ref_e == -1.0;

  // N-gate majority: per-output-qubit reference values must be classical.
  std::vector<std::pair<std::uint32_t, bool>> out_vals;
  if (is_ngate) {
    for (std::uint32_t q : built.ngate_out) {
      if (!ref.is_deterministic_z(q))
        return make_generic_frame_oracle(built.ex, prog);
      out_vals.emplace_back(q, ref.deterministic_z_value(q));
    }
  }

  // Z-syndrome rows as global-qubit lists, and the parity of the
  // min-weight X correction per syndrome — everything perfect_correct
  // contributes to the logical-Z verdict.  (The Z-error correction half
  // applies only Z operators, which cannot change a Z-basis logical
  // value, so it drops out of the closed form.)
  std::vector<std::vector<std::uint32_t>> zrows(code.num_z_checks());
  for (std::size_t r = 0; r < code.num_z_checks(); ++r) {
    const unsigned mask = code.z_check_mask(r);
    for (std::size_t i = 0; i < code.n(); ++i)
      if ((mask >> i) & 1) zrows[r].push_back(built.main_block.q[i]);
  }
  EQC_CHECK(code.num_z_checks() < 16);
  std::vector<std::uint8_t> fix_parity(std::size_t{1} << code.num_z_checks());
  for (unsigned s = 0; s < fix_parity.size(); ++s)
    fix_parity[s] = static_cast<std::uint8_t>(
        std::popcount(code.x_fix_for_z_syndrome(s)) & 1);

  // ex.failed demands corrected logical |1>_L for the N gate (it applied a
  // logical X to |0>_L) and |0>_L for the recovery gadgets.
  const bool expect_bit = is_ngate;
  std::vector<std::uint32_t> blk(built.main_block.q.begin(),
                                 built.main_block.q.end());

  return [out_vals = std::move(out_vals), zrows = std::move(zrows),
          fix_parity = std::move(fix_parity), blk = std::move(blk),
          ref_logical, expect_bit,
          is_ngate](const frame::FrameBatch& b) -> std::uint64_t {
    std::uint64_t fail = 0;
    if (is_ngate) {
      // Majority vote over the classical output register: lane value =
      // reference value XOR frame X bit; too few ones = failure.
      std::array<std::uint8_t, frame::FrameBatch::kLanes> ones{};
      for (const auto& [q, rv] : out_vals) {
        const std::uint64_t v = b.fx(q) ^ (rv ? ~std::uint64_t{0} : 0);
        for (unsigned l = 0; l < b.count(); ++l)
          ones[l] += static_cast<std::uint8_t>((v >> l) & 1);
      }
      for (unsigned l = 0; l < b.count(); ++l)
        if (2 * static_cast<int>(ones[l]) <= static_cast<int>(out_vals.size()))
          fail |= std::uint64_t{1} << l;
    }
    // Lane Z-type syndrome: XOR-fold the FX planes over each check row.
    std::array<std::uint16_t, frame::FrameBatch::kLanes> sz{};
    for (std::size_t r = 0; r < zrows.size(); ++r) {
      std::uint64_t w = 0;
      for (std::uint32_t q : zrows[r]) w ^= b.fx(q);
      for (unsigned l = 0; l < b.count(); ++l)
        sz[l] |= static_cast<std::uint16_t>(((w >> l) & 1) << r);
    }
    // Logical-Z parity of the frame over the block (all-ones logical Z).
    std::uint64_t pblock = 0;
    for (std::uint32_t q : blk) pblock ^= b.fx(q);
    for (unsigned l = 0; l < b.count(); ++l) {
      const bool bit = ref_logical ^ (((pblock >> l) & 1) != 0) ^
                       (fix_parity[sz[l]] != 0);
      if (bit != expect_bit) fail |= std::uint64_t{1} << l;
    }
    return fail;
  };
}

}  // namespace eqc::analysis
