// Tests for the runtime-polymorphic CssCode interface: registry lookup,
// classical structure (check masks, syndromes, decode tables, repair plan)
// and the encode / logical-operator circuit builders, exercised uniformly
// over both registered codes, plus concurrent first use of the codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/experiments.h"
#include "analysis/frame_oracle.h"
#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/fingerprint.h"
#include "circuit/sv_backend.h"
#include "circuit/tab_backend.h"
#include "codes/css_code.h"
#include "codes/steane.h"
#include "common/rng.h"
#include "frame/frames.h"

namespace eqc::codes {
namespace {

using circuit::Circuit;
using circuit::SvBackend;
using circuit::TabBackend;

std::vector<const CssCode*> all_codes() {
  std::vector<const CssCode*> out;
  for (auto name : known_code_names()) out.push_back(find_code(name));
  return out;
}

TEST(CssCodeRegistry, LookupByName) {
  const auto names = known_code_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "steane");
  EXPECT_EQ(names[1], "rm15");
  EXPECT_EQ(find_code("steane"), &steane_code());
  EXPECT_EQ(find_code("rm15"), &rm15_code());
  EXPECT_EQ(find_code("shor9"), nullptr);
  EXPECT_EQ(find_code(""), nullptr);
}

TEST(CssCodeRegistry, Parameters) {
  const auto& s = steane_code();
  EXPECT_EQ(s.n(), 7u);
  EXPECT_EQ(s.distance(), 3);
  EXPECT_EQ(s.num_z_checks(), 3u);
  EXPECT_EQ(s.num_x_checks(), 3u);
  EXPECT_TRUE(s.self_dual());
  EXPECT_TRUE(s.has_transversal_s());
  EXPECT_FALSE(s.has_transversal_t());

  const auto& r = rm15_code();
  EXPECT_EQ(r.n(), 15u);
  EXPECT_EQ(r.distance(), 3);
  EXPECT_EQ(r.num_z_checks(), 10u);
  EXPECT_EQ(r.num_x_checks(), 4u);
  EXPECT_FALSE(r.self_dual());
  EXPECT_FALSE(r.has_transversal_s());
  EXPECT_TRUE(r.has_transversal_t());
}

TEST(CssCode, ChecksAreCssOrthogonal) {
  // Every Z-type mask overlaps every X-type mask evenly (the stabilizers
  // commute) and overlaps the all-ones logical supports evenly too.
  for (const auto* code : all_codes()) {
    const unsigned ones = (1u << code->n()) - 1;
    for (std::size_t z = 0; z < code->num_z_checks(); ++z) {
      for (std::size_t x = 0; x < code->num_x_checks(); ++x)
        EXPECT_EQ(std::popcount(code->z_check_mask(z) &
                                code->x_check_mask(x)) %
                      2,
                  0)
            << code->name() << " z" << z << " x" << x;
      EXPECT_EQ(std::popcount(code->z_check_mask(z) & ones) % 2, 0);
    }
    for (std::size_t x = 0; x < code->num_x_checks(); ++x)
      EXPECT_EQ(std::popcount(code->x_check_mask(x) & ones) % 2, 0);
  }
}

TEST(CssCode, SingleErrorSyndromesAreDistinctAndNonzero) {
  // Classical distance >= 3 in both directions: every single error is
  // detectable (nonzero syndrome) and correctable (distinct syndromes),
  // and the lookup positions invert the syndrome maps.
  for (const auto* code : all_codes()) {
    std::set<unsigned> zsyn, xsyn;
    for (std::size_t pos = 0; pos < code->n(); ++pos) {
      const unsigned sz = code->z_syndrome_of_x_error(pos);
      const unsigned sx = code->x_syndrome_of_z_error(pos);
      EXPECT_NE(sz, 0u) << code->name() << " pos " << pos;
      EXPECT_NE(sx, 0u) << code->name() << " pos " << pos;
      EXPECT_TRUE(zsyn.insert(sz).second) << code->name() << " pos " << pos;
      EXPECT_TRUE(xsyn.insert(sx).second) << code->name() << " pos " << pos;
      EXPECT_EQ(code->x_error_position(sz), static_cast<int>(pos));
      EXPECT_EQ(code->z_error_position(sx), static_cast<int>(pos));
    }
    EXPECT_EQ(code->x_error_position(0), -1);
    EXPECT_EQ(code->z_error_position(0), -1);
  }
}

TEST(CssCode, DecodeLogicalBitCorrectsSingleBitErrors) {
  // Enumerate the full classical code (all words with zero Z-syndrome);
  // the logical bit of a codeword is its parity, and it must survive any
  // single bit flip.
  for (const auto* code : all_codes()) {
    std::size_t codewords = 0;
    for (unsigned w = 0; w < (1u << code->n()); ++w) {
      if (code->z_syndrome_of_word(w) != 0) continue;
      ++codewords;
      const bool logical = std::popcount(w) % 2 != 0;
      EXPECT_EQ(code->decode_logical_bit(w), logical);
      for (std::size_t e = 0; e < code->n(); ++e)
        EXPECT_EQ(code->decode_logical_bit(w ^ (1u << e)), logical)
            << code->name() << " word " << w << " flip " << e;
    }
    // 2^(n - num_z_checks) words: both logical cosets.
    EXPECT_EQ(codewords, 1u << (code->n() - code->num_z_checks()));
  }
}

TEST(CssCode, EncodeZeroLandsInCodespace) {
  for (const auto* code : all_codes()) {
    const auto b = CodeBlock::contiguous(0, code->n());
    Circuit c(code->n());
    code->append_encode_zero(c, b);
    TabBackend back(code->n(), Rng(1));
    circuit::execute(c, back);
    EXPECT_TRUE(code->block_in_codespace(back.tableau(), b)) << code->name();
    EXPECT_EQ(code->logical_z_expectation(back.tableau(), b), 1.0)
        << code->name();
  }
}

TEST(CssCode, LogicalXFlipsTheEncodedBit) {
  for (const auto* code : all_codes()) {
    const auto b = CodeBlock::contiguous(0, code->n());
    Circuit c(code->n());
    code->append_encode_zero(c, b);
    code->append_logical_x(c, b);
    TabBackend back(code->n(), Rng(1));
    circuit::execute(c, back);
    EXPECT_TRUE(code->block_in_codespace(back.tableau(), b)) << code->name();
    EXPECT_EQ(code->logical_z_expectation(back.tableau(), b), -1.0)
        << code->name();
  }
}

TEST(CssCode, EncodePlusIsTheLogicalPlusState) {
  for (const auto* code : all_codes()) {
    const auto b = CodeBlock::contiguous(0, code->n());
    Circuit c(code->n());
    code->append_encode_plus(c, b);
    TabBackend back(code->n(), Rng(1));
    circuit::execute(c, back);
    EXPECT_TRUE(code->block_in_codespace(back.tableau(), b)) << code->name();
    EXPECT_EQ(code->logical_z_expectation(back.tableau(), b), 0.0)
        << code->name();
    EXPECT_EQ(back.tableau().expectation_pauli(
                  code->logical_x_op(code->n(), b)),
              1.0)
        << code->name();
  }
}

TEST(CssCode, PerfectCorrectRepairsSingleErrors) {
  for (const auto* code : all_codes()) {
    const auto b = CodeBlock::contiguous(0, code->n());
    for (std::size_t pos = 0; pos < code->n(); ++pos) {
      // X error on |0>_L.
      {
        Circuit c(code->n());
        code->append_encode_zero(c, b);
        c.x(b.q[pos]);
        TabBackend back(code->n(), Rng(7));
        circuit::execute(c, back);
        Rng rng(11);
        code->perfect_correct(back.tableau(), b, rng);
        EXPECT_TRUE(code->block_in_codespace(back.tableau(), b))
            << code->name() << " X@" << pos;
        EXPECT_EQ(code->logical_z_expectation(back.tableau(), b), 1.0)
            << code->name() << " X@" << pos;
      }
      // Z error on |+>_L.
      {
        Circuit c(code->n());
        code->append_encode_plus(c, b);
        c.z(b.q[pos]);
        TabBackend back(code->n(), Rng(7));
        circuit::execute(c, back);
        Rng rng(11);
        code->perfect_correct(back.tableau(), b, rng);
        EXPECT_TRUE(code->block_in_codespace(back.tableau(), b))
            << code->name() << " Z@" << pos;
        EXPECT_EQ(back.tableau().expectation_pauli(
                      code->logical_x_op(code->n(), b)),
                  1.0)
            << code->name() << " Z@" << pos;
      }
    }
  }
}

TEST(CssCode, SteaneLogicalHOnZeroGivesPlus) {
  const auto& code = steane_code();
  const auto b = CodeBlock::contiguous(0, 7);
  Circuit c(7);
  code.append_encode_zero(c, b);
  code.append_logical_h(c, b);
  TabBackend back(7, Rng(1));
  circuit::execute(c, back);
  EXPECT_TRUE(code.block_in_codespace(back.tableau(), b));
  EXPECT_EQ(code.logical_z_expectation(back.tableau(), b), 0.0);
  EXPECT_EQ(back.tableau().expectation_pauli(code.logical_x_op(7, b)), 1.0);
}

TEST(CssCode, SuperpositionEncoderSpansTheSteaneZeroState) {
  // |0>_L of the Steane code is the uniform superposition over the span of
  // the three X-stabilizer masks — the pivot-form encoder must reproduce
  // it exactly.
  const auto& code = steane_code();
  const auto b = CodeBlock::contiguous(0, 7);
  std::vector<unsigned> masks;
  for (std::size_t row = 0; row < code.num_x_checks(); ++row)
    masks.push_back(code.x_check_mask(row));
  Circuit c(7);
  append_superposition_encoder(c, b, masks);
  SvBackend back(7, Rng(1));
  circuit::execute(c, back);
  const auto want = qsim::StateVector::from_amplitudes(
      Steane::encoded_amplitudes(1.0, 0.0));
  EXPECT_NEAR(back.state().fidelity(want), 1.0, 1e-10);
}

TEST(CssCode, ZRepairPlanCoversEverySyndrome) {
  // Steane is perfect: the one-hot single-position decode already reaches
  // every nonzero syndrome.
  EXPECT_TRUE(z_repair_plan(steane_code()).single_qubit_complete);

  // RM15 is not (16 of 1024 syndromes are single-qubit): the plan must be
  // an exact syndrome cover — H f(s) = s for EVERY s — with per-bit fanout
  // within the X-error correction radius, so a single corrupted classical
  // syndrome bit can never inject an uncorrectable burst.
  const CssCode& rm = rm15_code();
  const auto plan = z_repair_plan(rm);
  EXPECT_FALSE(plan.single_qubit_complete);
  ASSERT_EQ(plan.positions.size(), rm.num_z_checks());
  ASSERT_EQ(plan.tags.size(), rm.num_z_checks());
  EXPECT_LE(plan.max_bit_fanout, 3u);
  for (unsigned s = 0; s < (1u << rm.num_z_checks()); ++s) {
    unsigned pattern = 0;
    for (std::size_t j = 0; j < plan.positions.size(); ++j)
      if (std::popcount(plan.tags[j] & s) & 1)
        pattern |= 1u << plan.positions[j];
    EXPECT_EQ(rm.z_syndrome_of_word(pattern), s);
  }
}

// Brute-force reference for the decode tables: the first mask, in
// increasing weight and Gosper order within a weight, whose syndrome under
// `checks` is `syndrome`.
unsigned brute_force_min_weight(unsigned syndrome,
                                const std::vector<unsigned>& checks,
                                std::size_t n) {
  auto syndrome_of = [&](unsigned mask) {
    unsigned s = 0;
    for (std::size_t r = 0; r < checks.size(); ++r)
      if (std::popcount(mask & checks[r]) & 1) s |= 1u << r;
    return s;
  };
  if (syndrome == 0) return 0;
  for (std::size_t w = 1; w <= n; ++w) {
    std::uint32_t mask = (1u << w) - 1;
    while (mask < (1u << n)) {
      if (syndrome_of(mask) == syndrome) return mask;
      const std::uint32_t c = mask & (~mask + 1);
      const std::uint32_t up = mask + c;
      mask = (((mask ^ up) >> 2) / c) | up;
    }
  }
  ADD_FAILURE() << "syndrome " << syndrome << " unreachable";
  return 0;
}

// Reference repair-plan search: every pivot set of m positions in
// lexicographic order; a set qualifies when its m columns of H_z map onto
// all 2^m syndromes, and the first set with the smallest per-syndrome-bit
// fanout wins.  The inverse is read off the exhaustive syndrome map rather
// than by elimination.
ZRepairPlan brute_force_repair_plan(const CssCode& code) {
  const std::size_t n = code.n();
  const std::size_t m = code.num_z_checks();
  std::vector<unsigned> column(n);
  for (std::size_t i = 0; i < n; ++i) column[i] = code.z_syndrome_of_x_error(i);
  ZRepairPlan best;
  std::size_t best_score = static_cast<std::size_t>(-1);
  std::vector<std::size_t> cols(m);
  for (std::size_t j = 0; j < m; ++j) cols[j] = j;
  while (true) {
    std::vector<int> solution(std::size_t{1} << m, -1);
    bool bijective = true;
    for (unsigned x = 0; x < (1u << m) && bijective; ++x) {
      unsigned syndrome = 0;
      for (std::size_t j = 0; j < m; ++j)
        if (x & (1u << j)) syndrome ^= column[cols[j]];
      int& slot = solution[syndrome];
      bijective = slot < 0;
      slot = static_cast<int>(x);
    }
    if (bijective) {
      std::size_t score = 0;
      std::vector<unsigned> tags(m, 0);
      for (std::size_t r = 0; r < m; ++r) {
        const auto x = static_cast<unsigned>(solution[1u << r]);
        score = std::max<std::size_t>(score, std::popcount(x));
        for (std::size_t j = 0; j < m; ++j)
          if (x & (1u << j)) tags[j] |= 1u << r;
      }
      if (score < best_score) {
        best_score = score;
        best.positions = cols;
        best.tags = tags;
        best.max_bit_fanout = score;
      }
    }
    std::size_t j = m;
    while (j > 0 && cols[j - 1] == n - m + (j - 1)) --j;
    if (j == 0) break;
    ++cols[j - 1];
    for (std::size_t i = j; i < m; ++i) cols[i] = cols[i - 1] + 1;
  }
  return best;
}

TEST(CssCode, DecodeTablesMatchBruteForceMinWeight) {
  for (const CssCode* code : all_codes()) {
    SCOPED_TRACE(std::string(code->name()));
    std::vector<unsigned> z_checks, x_checks;
    for (std::size_t r = 0; r < code->num_z_checks(); ++r)
      z_checks.push_back(code->z_check_mask(r));
    for (std::size_t r = 0; r < code->num_x_checks(); ++r)
      x_checks.push_back(code->x_check_mask(r));

    for (unsigned s = 0; s < (1u << z_checks.size()); ++s) {
      const unsigned fix = code->x_fix_for_z_syndrome(s);
      EXPECT_EQ(fix, brute_force_min_weight(s, z_checks, code->n()))
          << "Z syndrome " << s;
      EXPECT_EQ(code->z_syndrome_of_word(fix), s);
    }
    for (unsigned s = 0; s < (1u << x_checks.size()); ++s) {
      const unsigned fix = code->z_fix_for_x_syndrome(s);
      EXPECT_EQ(fix, brute_force_min_weight(s, x_checks, code->n()))
          << "X syndrome " << s;
      unsigned got = 0;
      for (std::size_t r = 0; r < x_checks.size(); ++r)
        if (std::popcount(fix & x_checks[r]) & 1) got |= 1u << r;
      EXPECT_EQ(got, s);
    }
  }

  // The repair plan equals the exhaustive pivot search.  Steane is perfect,
  // so it keeps the one-hot decode and has no pivot set.
  const ZRepairPlan& steane = z_repair_plan(steane_code());
  EXPECT_TRUE(steane.single_qubit_complete);
  EXPECT_TRUE(steane.positions.empty());
  EXPECT_EQ(steane.max_bit_fanout, 2u);
  const ZRepairPlan& rm = z_repair_plan(rm15_code());
  const ZRepairPlan want = brute_force_repair_plan(rm15_code());
  EXPECT_FALSE(rm.single_qubit_complete);
  EXPECT_EQ(rm.positions, want.positions);
  EXPECT_EQ(rm.tags, want.tags);
  EXPECT_EQ(rm.max_bit_fanout, want.max_bit_fanout);
}

// Run through ctest, this test is alone in its process, so the threads
// race on the first construction of the code singletons and their tables.
TEST(CssCode, TablesAreSafeUnderConcurrentFirstUse) {
  struct Outcome {
    std::vector<std::uint64_t> fingerprints;
    std::vector<std::uint64_t> words;
    bool operator==(const Outcome&) const = default;
  };
  auto build = [] {
    Outcome out;
    for (const std::string gadget : {"ngate", "recovery"}) {
      analysis::GadgetSpec spec;
      spec.gadget = gadget;
      spec.scenario.code = "rm15";
      spec.seed = 17;
      const analysis::BuiltGadget built =
          analysis::build_gadget_experiment(spec);
      out.fingerprints.push_back(circuit::fingerprint(built.ex.prep));
      out.fingerprints.push_back(circuit::fingerprint(built.ex.gadget));
      const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
      const frame::BatchOracle oracle =
          analysis::make_frame_oracle(gadget, built, prog);
      const auto model = analysis::scenario_noise_model(spec.scenario, 1e-2);
      for (std::uint64_t first = 0; first < 256; first += 64) {
        frame::FrameBatch batch(prog);
        batch.run_stochastic(model, spec.seed, first, 64);
        out.words.push_back(oracle(batch));
      }
    }
    return out;
  };

  std::vector<Outcome> concurrent(8);
  {
    std::vector<std::thread> threads;
    for (auto& slot : concurrent)
      threads.emplace_back([&slot, &build] { slot = build(); });
    for (auto& t : threads) t.join();
  }
  const Outcome serial = build();
  ASSERT_EQ(serial.fingerprints.size(), 4u);
  ASSERT_EQ(serial.words.size(), 8u);
  for (std::size_t i = 0; i < concurrent.size(); ++i)
    EXPECT_TRUE(concurrent[i] == serial) << "thread " << i;
}

TEST(CssCode, EvenPairSyndromesAreDisjointFromOddErrorSyndromes) {
  // Perfect codes leave the N gate's OR compensation alone.
  EXPECT_TRUE(z_repair_even_pair_syndromes(steane_code()).empty());

  // RM15: the pair syndromes are exactly the even-weight bursts a single
  // classical fault in the burst repair can leave on a block.  The N gate
  // cancels OR(s) on them, which is only sound if no odd-weight
  // correctable error shares a syndrome with a pair — check against all
  // weight-1 and weight-3 errors.
  const CssCode& rm = rm15_code();
  const auto pairs = z_repair_even_pair_syndromes(rm);
  ASSERT_FALSE(pairs.empty());
  EXPECT_TRUE(std::is_sorted(pairs.begin(), pairs.end()));
  for (const unsigned s : pairs) {
    EXPECT_NE(s, 0u);
    for (std::size_t p = 0; p < rm.n(); ++p)
      EXPECT_NE(rm.z_syndrome_of_x_error(p), s);
    for (std::size_t p1 = 0; p1 < rm.n(); ++p1)
      for (std::size_t p2 = p1 + 1; p2 < rm.n(); ++p2)
        for (std::size_t p3 = p2 + 1; p3 < rm.n(); ++p3)
          ASSERT_NE(rm.z_syndrome_of_word((1u << p1) | (1u << p2) | (1u << p3)),
                    s);
  }
}

TEST(CssCode, PerfectCorrectRepairsTripleXErrorsOnRm15) {
  // RM15's X-distance is 7, so the ideal decoder must repair any weight-3
  // X error — the residue class the recovery gadget's repair machinery is
  // allowed to leave on the data after one internal fault.
  const CssCode& rm = rm15_code();
  const auto b = CodeBlock::contiguous(0, rm.n());
  for (std::size_t p1 = 0; p1 < rm.n(); ++p1)
    for (std::size_t p2 = p1 + 1; p2 < rm.n(); ++p2)
      for (std::size_t p3 = p2 + 1; p3 < rm.n(); ++p3) {
        Circuit c(rm.n());
        rm.append_encode_zero(c, b);
        c.x(b.q[p1]);
        c.x(b.q[p2]);
        c.x(b.q[p3]);
        TabBackend back(rm.n(), Rng(7));
        circuit::execute(c, back);
        Rng rng(11);
        rm.perfect_correct(back.tableau(), b, rng);
        ASSERT_EQ(rm.logical_z_expectation(back.tableau(), b), 1.0)
            << "X@" << p1 << "," << p2 << "," << p3;
      }
}

TEST(CssCode, CodeBlockConversionsRoundTrip) {
  const auto b = CodeBlock::contiguous(3, 7);
  const Block s = b.steane();
  EXPECT_EQ(s.q[0], 3u);
  EXPECT_EQ(s.q[6], 9u);
  EXPECT_EQ(CodeBlock::of(s).q, b.q);
  const auto r = CodeBlock::contiguous(1, 15);
  EXPECT_EQ(CodeBlock::of(r.rm15()).q, r.q);
}

}  // namespace
}  // namespace eqc::codes
