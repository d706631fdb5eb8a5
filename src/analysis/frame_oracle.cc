#include "analysis/frame_oracle.h"

#include <algorithm>
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
  EQC_EXPECTS(gadget == built.spec.gadget);
  const stab::Tableau& ref = prog.reference_tableau();
  const codes::CssCode& code = *built.code;
  const bool is_ngate = built.spec.gadget == "ngate";

  // Soundness gates for the closed form.  A trial is F |ref> with F a
  // Pauli, so when the reference block is a codeword with a definite
  // logical Z value, every lane's perfect_correct verdict is a parity
  // function of the lane's FX bits; anything else falls back.  A |+>_L
  // input (judged by logical X) leaves the reference with no definite
  // logical Z, so it always takes the generic oracle here.
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

  // ex.failed demands the corrected logical Z value the prep encoded, and
  // an N-gate majority equal to it.
  const bool expect_bit = built.spec.input == LogicalInput::One;
  std::vector<std::uint32_t> blk(built.main_block.q.begin(),
                                 built.main_block.q.end());

  // A lane whose frame has no X bit on the output register, a check row or
  // the block reads exactly what the reference reads: zero syndrome, the
  // reference logical value and the reference majority.  Only lanes that
  // touch one of those qubits need the per-lane lookups.
  std::vector<std::uint32_t> watched(blk);
  for (const auto& [q, rv] : out_vals) watched.push_back(q);
  for (const auto& row : zrows) watched.insert(watched.end(), row.begin(),
                                               row.end());
  std::sort(watched.begin(), watched.end());
  watched.erase(std::unique(watched.begin(), watched.end()), watched.end());
  std::size_t ref_ones = 0;
  for (const auto& [q, rv] : out_vals) ref_ones += rv ? 1 : 0;
  const bool ref_fails =
      (is_ngate && (2 * ref_ones > out_vals.size()) != expect_bit) ||
      ((ref_logical ^ (fix_parity[0] != 0)) != expect_bit);

  return [out_vals = std::move(out_vals), zrows = std::move(zrows),
          fix_parity = std::move(fix_parity), blk = std::move(blk),
          watched = std::move(watched), ref_logical, ref_fails, expect_bit,
          is_ngate](const frame::FrameBatch& b) -> std::uint64_t {
    std::uint64_t touched = 0;
    for (std::uint32_t q : watched) touched |= b.fx(q);
    touched &= b.active_mask();
    std::uint64_t fail = ref_fails ? b.active_mask() & ~touched : 0;
    if (touched == 0) return fail;

    // Lane Z-type syndrome rows and the logical-Z parity of the frame over
    // the block (all-ones logical Z), as words.
    std::array<std::uint64_t, 16> srow{};
    for (std::size_t r = 0; r < zrows.size(); ++r)
      for (std::uint32_t q : zrows[r]) srow[r] ^= b.fx(q);
    std::uint64_t pblock = 0;
    for (std::uint32_t q : blk) pblock ^= b.fx(q);

    for (std::uint64_t m = touched; m != 0; m &= m - 1) {
      const unsigned l = static_cast<unsigned>(std::countr_zero(m));
      bool lane_fails = false;
      if (is_ngate) {
        // Majority vote over the classical output register: lane value =
        // reference value XOR frame X bit; a majority other than the
        // expected bit = failure.
        std::size_t ones = 0;
        for (const auto& [q, rv] : out_vals)
          ones += (((b.fx(q) >> l) & 1) != 0) != rv ? 1 : 0;
        lane_fails = (2 * ones > out_vals.size()) != expect_bit;
      }
      unsigned sz = 0;
      for (std::size_t r = 0; r < zrows.size(); ++r)
        sz |= static_cast<unsigned>((srow[r] >> l) & 1) << r;
      const bool bit = ref_logical ^ (((pblock >> l) & 1) != 0) ^
                       (fix_parity[sz] != 0);
      if (lane_fails || bit != expect_bit) fail |= std::uint64_t{1} << l;
    }
    return fail;
  };
}

}  // namespace eqc::analysis
