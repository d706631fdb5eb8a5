#include "ftqc/recovery.h"

#include <vector>

#include "codes/classical_logic.h"
#include "common/assert.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"

namespace eqc::ftqc {

namespace {

using circuit::Circuit;
using codes::CodeBlock;
using codes::CssCode;

// Copies the block's classical parities (Z-type or X-type checks) onto
// classical bits (the parities are deterministic on any codeword-uniform
// state, so this never decoheres the block — the N-gate trick).
void read_parities(Circuit& circ, const CssCode& code, const CodeBlock& block,
                   std::span<const std::uint32_t> syn, bool x_type) {
  const std::size_t m = x_type ? code.num_x_checks() : code.num_z_checks();
  for (std::size_t row = 0; row < m; ++row) {
    circ.prep_z(syn[row]);
    const unsigned mask =
        x_type ? code.x_check_mask(row) : code.z_check_mask(row);
    for (std::size_t i = 0; i < code.n(); ++i)
      if (mask & (1u << i)) circ.cnot(block.q[i], syn[row]);
  }
}

// onehot ^= [reg == pattern] (reversible one-hot decode; preps work+onehot).
void decode_pattern(Circuit& circ, std::span<const std::uint32_t> reg,
                    std::span<const std::uint32_t> work, std::uint32_t onehot,
                    unsigned pattern) {
  codes::append_match_pattern(circ, reg, pattern, work, onehot,
                              /*prep_target=*/true);
}

// Burst repair shared by both ancilla preparations: read the classical
// Z-type syndrome twice, and if the two reads agree, apply a correction
// whose syndrome EQUALS the read — any single fault either leaves the
// block a codeword pattern or is caught by the disagreement gate.
//
// The correction map must cover the WHOLE syndrome space: an unverified
// encoder burst can carry any syndrome, and a burst the map cannot reach
// survives repair and (as the control of the later transversal CNOT) lands
// on the data as a multi-qubit X error.  For a perfect code (Steane) the
// single-qubit one-hot decode already covers it — every nonzero syndrome
// is some position's syndrome.  Otherwise (RM15: 16 of 1024 syndromes
// reachable by one-hot) an information-set solve applies X on pivot
// position p_j iff parity(tags_j & syndrome): H f(s) = s for every s, so
// burst + repair is always an X stabilizer or a logical X, and the
// caller's coset fix handles the latter.  The pivot set is chosen to
// minimize per-syndrome-bit fanout, capping what one corrupted classical
// bit can inject at the code's X-correction radius (3 for RM15).
void append_burst_repair(Circuit& circ, const CssCode& code,
                         const CodeBlock& block, const RecoveryAncillas& anc) {
  const std::size_t mz = code.num_z_checks();
  read_parities(circ, code, block, anc.prep_syn1, /*x_type=*/false);
  read_parities(circ, code, block, anc.prep_syn2, /*x_type=*/false);
  // syn2 := syn1 XOR syn2 (difference); eq = NOR(difference).
  for (std::size_t j = 0; j < mz; ++j)
    circ.cnot(anc.prep_syn1[j], anc.prep_syn2[j]);
  codes::append_nor_into(circ, std::span(anc.prep_syn2).subspan(0, mz),
                         anc.prep_work, anc.prep_eq);
  // repair = eq ? syn1 : 0.
  for (std::size_t j = 0; j < mz; ++j) {
    circ.prep_z(anc.prep_repair[j]);
    circ.ccx(anc.prep_eq, anc.prep_syn1[j], anc.prep_repair[j]);
  }
  const codes::ZRepairPlan& plan = codes::z_repair_plan(code);
  if (plan.single_qubit_complete) {
    // Decode + classically controlled repair (one hot per position).
    for (std::size_t i = 0; i < code.n(); ++i) {
      decode_pattern(circ, anc.prep_repair, anc.prep_work, anc.onehot[i],
                     code.z_syndrome_of_x_error(i));
      circ.cnot(anc.onehot[i], block.q[i]);
    }
    return;
  }
  // Linear repair: each pivot accumulates its syndrome-bit parity directly.
  for (std::size_t j = 0; j < plan.positions.size(); ++j)
    for (std::size_t r = 0; r < mz; ++r)
      if (plan.tags[j] & (1u << r))
        circ.cnot(anc.prep_repair[r], block.q[plan.positions[j]]);
}

// Fault-tolerant repaired |0>_L ancilla: encode |0>_L, REPAIR any X burst
// the unverified encoder may have left (the repaired pattern is then an X
// stabilizer — or a logical X), then fix the logical coset: the N gate
// reads the (deterministic) logical bit fault-tolerantly onto an n-wide
// classical register, which then controls a bit-wise X_L repair — the
// paper's own classically-controlled-logical-operation technique.
void prepare_repaired_zero(Circuit& circ, const CssCode& code,
                           const RecoveryAncillas& anc) {
  const CodeBlock& a = anc.anc_block;
  for (auto q : a.q) circ.prep_z(q);
  code.append_encode_zero(circ, a);
  append_burst_repair(circ, code, a, anc);
  append_ngate(circ, code, a, anc.prep_nout, anc.prep_n, NGateOptions{});
  for (std::size_t i = 0; i < code.n(); ++i)
    circ.cnot(anc.prep_nout[i], a.q[i]);
}

// Fault-tolerant |+>_L ancilla.  Self-dual codes: repaired |0>_L then
// transversal H.  Otherwise: direct |+>_L encoder plus the X-burst repair
// (the Z-type parities are deterministic on |+>_L too); no coset fix is
// needed because X_L stabilizes |+>_L.  Residual single-fault damage is at
// most one Z on the block plus benign X noise; neither can put more than
// one error on the data.
void prepare_plus_ancilla(Circuit& circ, const CssCode& code,
                          const RecoveryAncillas& anc) {
  if (code.self_dual()) {
    prepare_repaired_zero(circ, code, anc);
    code.append_logical_h(circ, anc.anc_block);
    return;
  }
  const CodeBlock& a = anc.anc_block;
  for (auto q : a.q) circ.prep_z(q);
  code.append_encode_plus(circ, a);
  append_burst_repair(circ, code, a, anc);
}

// One Steane-style Z-type extraction: |+>_L ancilla block as
// transversal-CNOT target, then the ancilla's Z-type parities onto
// classical bits.
void extract_z_syndrome(Circuit& circ, const CssCode& code,
                        const CodeBlock& data, const RecoveryAncillas& anc,
                        std::span<const std::uint32_t> syn) {
  prepare_plus_ancilla(circ, code, anc);
  code.append_logical_cnot(circ, data, anc.anc_block);
  read_parities(circ, code, anc.anc_block, syn, /*x_type=*/false);
}

// X-type extraction for a non-self-dual code: repaired |0>_L ancilla as
// transversal-CNOT CONTROL (data phase errors copy onto the ancilla), raw
// qubit-wise H, then the X-type parities — deterministic because H^(x)n
// |0>_L is the uniform superposition over the dual code's codewords.
void extract_x_syndrome(Circuit& circ, const CssCode& code,
                        const CodeBlock& data, const RecoveryAncillas& anc,
                        std::span<const std::uint32_t> syn) {
  prepare_repaired_zero(circ, code, anc);
  code.append_logical_cnot(circ, anc.anc_block, data);
  for (auto q : anc.anc_block.q) circ.h(q);
  read_parities(circ, code, anc.anc_block, syn, /*x_type=*/true);
}

// Index of the pair (a, b), a < b, in lexicographic pair order.
std::size_t eq_index(int rounds, int a, int b) {
  std::size_t idx = 0;
  for (int i = 0; i < a; ++i) idx += static_cast<std::size_t>(rounds - 1 - i);
  return idx + static_cast<std::size_t>(b - a - 1);
}

// Word-level agreement vote over `rounds` syndrome words of width `w`:
// voted = the first round's word that enough other rounds agree with, else
// 0.  For three rounds "enough" is one other round — the paper's "use a
// syndrome that two rounds agree on"; for 2k+1 rounds it is k others, the
// count at which the agreed word is unique when at most k rounds are
// faulty.
void append_agreement_vote(Circuit& circ, const RecoveryAncillas& anc,
                           std::span<const std::uint32_t> syn, std::size_t w,
                           int rounds) {
  auto word = [&](int r) { return syn.subspan(static_cast<std::size_t>(r) * w, w); };

  // eq[pair] = [word(a) == word(b)] for every pair a < b.
  for (int a = 0; a < rounds; ++a) {
    for (int b = a + 1; b < rounds; ++b) {
      const auto sa = word(a), sb = word(b);
      // diff_j = a_j XOR b_j; eq = NOR(diff).
      for (std::size_t j = 0; j < w; ++j) {
        circ.prep_z(anc.diff[j]);
        circ.cnot(sa[j], anc.diff[j]);
        circ.cnot(sb[j], anc.diff[j]);
      }
      codes::append_nor_into(circ, std::span(anc.diff).subspan(0, w),
                             anc.and_work, anc.eq[eq_index(rounds, a, b)]);
    }
  }

  if (rounds == 3) {
    // u1 = eq12 OR eq13 = NOT(!eq12 AND !eq13).
    circ.prep_z(anc.use_bits[0]);
    circ.x(anc.eq[0]);
    circ.x(anc.eq[1]);
    circ.ccx(anc.eq[0], anc.eq[1], anc.use_bits[0]);
    circ.x(anc.use_bits[0]);
    circ.x(anc.eq[0]);  // restore
    circ.x(anc.eq[1]);
    // u2 = eq23 AND NOT u1.
    circ.prep_z(anc.use_bits[1]);
    circ.x(anc.use_bits[0]);
    circ.ccx(anc.eq[2], anc.use_bits[0], anc.use_bits[1]);
    circ.x(anc.use_bits[0]);
  } else {
    // General counting rule: t_r = [#{b != r : word(b) == word(r)} >= k],
    // u_r = t_r AND no earlier round used.
    const std::size_t k = static_cast<std::size_t>(rounds) / 2;
    const std::size_t cts =
        codes::count_threshold_scratch(static_cast<std::size_t>(rounds - 1));
    const std::uint32_t t_bit = anc.and_work[cts];
    const auto chain = std::span(anc.and_work).subspan(cts + 1);
    for (int r = 0; r + 1 < rounds; ++r) {
      std::vector<std::uint32_t> agree;
      for (int b = 0; b < rounds; ++b)
        if (b != r)
          agree.push_back(
              anc.eq[eq_index(rounds, std::min(r, b), std::max(r, b))]);
      circ.prep_z(t_bit);
      codes::append_count_threshold(
          circ, agree, k, std::span(anc.and_work).subspan(0, cts), t_bit);
      circ.prep_z(anc.use_bits[static_cast<std::size_t>(r)]);
      for (int i = 0; i < r; ++i)
        circ.x(anc.use_bits[static_cast<std::size_t>(i)]);
      if (r == 0) {
        circ.cnot(t_bit, anc.use_bits[0]);
      } else if (r == 1) {
        circ.ccx(t_bit, anc.use_bits[0], anc.use_bits[1]);
      } else {
        circ.prep_z(chain[0]);
        circ.ccx(t_bit, anc.use_bits[0], chain[0]);
        for (int i = 1; i + 1 < r; ++i) {
          circ.prep_z(chain[static_cast<std::size_t>(i)]);
          circ.ccx(chain[static_cast<std::size_t>(i - 1)],
                   anc.use_bits[static_cast<std::size_t>(i)],
                   chain[static_cast<std::size_t>(i)]);
        }
        circ.ccx(chain[static_cast<std::size_t>(r - 2)],
                 anc.use_bits[static_cast<std::size_t>(r - 1)],
                 anc.use_bits[static_cast<std::size_t>(r)]);
      }
      for (int i = 0; i < r; ++i)
        circ.x(anc.use_bits[static_cast<std::size_t>(i)]);
    }
  }

  for (std::size_t j = 0; j < w; ++j) {
    circ.prep_z(anc.voted[j]);
    for (int r = 0; r + 1 < rounds; ++r)
      circ.ccx(anc.use_bits[static_cast<std::size_t>(r)], word(r)[j],
               anc.voted[j]);
  }
}

}  // namespace

void append_recovery(Circuit& circ, const CssCode& code, const CodeBlock& data,
                     const RecoveryAncillas& anc,
                     const RecoveryOptions& options,
                     RecoveryRoundMarks* marks) {
  const int rounds = options.rounds;
  const std::size_t n = code.n();
  const std::size_t mz = code.num_z_checks();
  const std::size_t mx = code.num_x_checks();
  EQC_EXPECTS(rounds >= 1 && rounds % 2 == 1);
  EQC_EXPECTS(data.size() == n);
  EQC_EXPECTS(anc.syn_z.size() >= static_cast<std::size_t>(rounds) * mz);
  EQC_EXPECTS(anc.syn_x.size() >= static_cast<std::size_t>(rounds) * mx);
  EQC_EXPECTS(anc.onehot.size() == n);
  auto mark = [&] {
    if (marks != nullptr) marks->op_boundaries.push_back(circ.size());
  };
  auto z_round = [&](int r) {
    return std::span(anc.syn_z).subspan(static_cast<std::size_t>(r) * mz, mz);
  };
  auto x_round = [&](int r) {
    return std::span(anc.syn_x).subspan(static_cast<std::size_t>(r) * mx, mx);
  };

  // --- Syndrome extraction. ------------------------------------------------
  // Z-type checks (X-error detection): direct.
  for (int r = 0; r < rounds; ++r) {
    extract_z_syndrome(circ, code, data, anc, z_round(r));
    mark();
  }
  // X-type checks (Z-error detection).
  if (code.self_dual()) {
    // In a transversal-H frame the Z-type machinery measures X-type checks.
    code.append_logical_h(circ, data);
    for (int r = 0; r < rounds; ++r) {
      extract_z_syndrome(circ, code, data, anc, x_round(r));
      mark();
    }
    code.append_logical_h(circ, data);
  } else {
    for (int r = 0; r < rounds; ++r) {
      extract_x_syndrome(circ, code, data, anc, x_round(r));
      mark();
    }
  }

  if (options.measurement_free) {
    // Z-type syndrome -> X corrections.
    if (rounds == 1) {
      for (std::size_t j = 0; j < mz; ++j) {
        circ.prep_z(anc.voted[j]);
        circ.cnot(anc.syn_z[j], anc.voted[j]);
      }
    } else {
      append_agreement_vote(circ, anc, anc.syn_z, mz, rounds);
    }
    for (std::size_t i = 0; i < n; ++i) {
      decode_pattern(circ, std::span(anc.voted).subspan(0, mz),
                     anc.decode_work, anc.onehot[i],
                     code.z_syndrome_of_x_error(i));
      circ.cnot(anc.onehot[i], data.q[i]);  // X correction
    }
    mark();
    // X-type syndrome -> Z corrections.
    if (rounds == 1) {
      for (std::size_t j = 0; j < mx; ++j) {
        circ.prep_z(anc.voted[j]);
        circ.cnot(anc.syn_x[j], anc.voted[j]);
      }
    } else {
      append_agreement_vote(circ, anc, anc.syn_x, mx, rounds);
    }
    for (std::size_t i = 0; i < n; ++i) {
      decode_pattern(circ, std::span(anc.voted).subspan(0, mx),
                     anc.decode_work, anc.onehot[i],
                     code.x_syndrome_of_z_error(i));
      circ.cz(anc.onehot[i], data.q[i]);  // Z correction
    }
    mark();
    return;
  }

  // --- Measurement-based baseline: identical extraction and decode rule,
  //     but the syndrome bits are measured and the vote/decode run as
  //     classical feed-forward. ---------------------------------------------
  std::vector<std::uint32_t> meas_z, meas_x;
  for (int r = 0; r < rounds; ++r)
    for (std::size_t row = 0; row < mz; ++row)
      meas_z.push_back(
          circ.measure_z(anc.syn_z[static_cast<std::size_t>(r) * mz + row]));
  for (int r = 0; r < rounds; ++r)
    for (std::size_t row = 0; row < mx; ++row)
      meas_x.push_back(
          circ.measure_z(anc.syn_x[static_cast<std::size_t>(r) * mx + row]));

  auto voted_syndrome = [rounds](const std::vector<std::uint32_t>& slots,
                                 std::size_t w, const std::vector<bool>& bits) {
    auto word = [&](int r) {
      unsigned s = 0;
      for (std::size_t row = 0; row < w; ++row)
        if (bits[slots[static_cast<std::size_t>(r) * w + row]])
          s |= 1u << row;
      return s;
    };
    if (rounds == 1) return word(0);
    const int needed = rounds / 2;  // agreeing OTHER rounds
    for (int r = 0; r + 1 < rounds; ++r) {
      int agree = 0;
      for (int b = 0; b < rounds; ++b)
        if (b != r && word(b) == word(r)) ++agree;
      if (agree >= needed) return word(r);
    }
    return 0u;  // no agreement: do nothing
  };
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned pz = code.z_syndrome_of_x_error(i);
    const auto fz = circ.add_classical_func(
        [meas_z, mz, pz, voted_syndrome](const std::vector<bool>& bits) {
          return voted_syndrome(meas_z, mz, bits) == pz;
        });
    circ.x_if(fz, data.q[i]);
    const unsigned px = code.x_syndrome_of_z_error(i);
    const auto fx = circ.add_classical_func(
        [meas_x, mx, px, voted_syndrome](const std::vector<bool>& bits) {
          return voted_syndrome(meas_x, mx, bits) == px;
        });
    circ.z_if(fx, data.q[i]);
  }
}

RecoveryAncillas allocate_recovery_ancillas(Layout& layout,
                                            const codes::CssCode& code,
                                            int rounds) {
  EQC_EXPECTS(rounds >= 1 && rounds % 2 == 1);
  const std::size_t mz = code.num_z_checks();
  const std::size_t mx = code.num_x_checks();
  const std::size_t maxw = std::max(mz, mx);
  // The vote scratch is sized for >= 3 rounds even when rounds == 1, so
  // the rounds=1 ablation keeps the historical footprint.
  const int vr = std::max(rounds, 3);

  RecoveryAncillas anc;
  anc.anc_block = layout.block(code);
  anc.prep_syn1 = layout.reg(mz);
  anc.prep_syn2 = layout.reg(mz);
  anc.prep_work = layout.reg(mz > 2 ? mz - 2 : 1);
  anc.prep_eq = layout.bit();
  anc.prep_repair = layout.reg(mz);
  anc.prep_n = allocate_ngate_ancillas(layout, code, 3);
  anc.prep_nout = layout.reg(code.n());
  anc.syn_z = layout.reg(static_cast<std::size_t>(rounds) * mz);
  anc.syn_x = layout.reg(static_cast<std::size_t>(rounds) * mx);
  anc.diff = layout.reg(maxw);
  std::size_t and_work = maxw > 2 ? maxw - 2 : 1;
  if (vr >= 5)
    and_work = std::max(
        and_work,
        codes::count_threshold_scratch(static_cast<std::size_t>(vr - 1)) + 1 +
            static_cast<std::size_t>(vr - 3));
  anc.and_work = layout.reg(and_work);
  anc.eq = layout.reg(static_cast<std::size_t>(vr) *
                      static_cast<std::size_t>(vr - 1) / 2);
  anc.use_bits = layout.reg(static_cast<std::size_t>(vr - 1));
  anc.voted = layout.reg(maxw);
  anc.onehot = layout.reg(code.n());
  anc.decode_work = layout.reg(maxw > 2 ? maxw - 2 : 1);
  return anc;
}

}  // namespace eqc::ftqc
