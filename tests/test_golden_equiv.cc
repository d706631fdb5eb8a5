// Golden-equivalence contract: every generic gadget builder instantiated
// with (Steane, paper-era repetition counts) must emit a circuit
// byte-identical to the pre-refactor hard-wired builder it replaced.
//
// The expected values below are FNV-1a fingerprints (circuit/fingerprint.h)
// captured from the seed builders BEFORE the CssCode refactor landed, with
// the exact register layouts the seed used.  A mismatch means the generic
// path changed the emitted op stream for the Steane instantiation — which
// would silently invalidate every previously published campaign number.
//
// Note: the seed's repetitions=5 N-gate entries are intentionally absent —
// the generic majority counter allocates its scratch differently at
// 2k+1 >= 5 (documented behavior change), so only the paper's r=1 and r=3
// configurations are pinned.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/experiments.h"
#include "circuit/fingerprint.h"
#include "codes/css_code.h"
#include "common/assert.h"
#include "ftqc/baselines.h"
#include "ftqc/cat.h"
#include "ftqc/ft_tgate.h"
#include "ftqc/ft_toffoli.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "ftqc/recovery.h"
#include "ftqc/special_state.h"

namespace eqc::ftqc {
namespace {

using circuit::Circuit;
using circuit::fingerprint;

const codes::CssCode& steane() { return codes::steane_code(); }

TEST(GoldenEquiv, NGate) {
  struct Case {
    int reps;
    bool syndrome;
    std::uint64_t want;
  };
  const Case cases[] = {
      {1, true, 0xb278e538f63c71f3ULL},
      {1, false, 0x9d3c93c5f6ded313ULL},
      {3, true, 0x5c9ec6d76f2692f9ULL},
      {3, false, 0x598674c8352c9a8bULL},
  };
  for (const auto& tc : cases) {
    Layout layout;
    const auto source = layout.block(steane());
    auto anc = allocate_ngate_ancillas(layout, steane(), tc.reps);
    const auto out = layout.reg(7);
    Circuit c(layout.total());
    NGateOptions opt;
    opt.repetitions = tc.reps;
    opt.syndrome_check = tc.syndrome;
    append_ngate(c, steane(), source, out, anc, opt);
    EXPECT_EQ(fingerprint(c), tc.want)
        << "reps=" << tc.reps << " syndrome=" << tc.syndrome;
  }
}

TEST(GoldenEquiv, Recovery) {
  struct Case {
    int rounds;
    bool mf;
    std::uint64_t want;
  };
  const Case cases[] = {
      {1, true, 0x4c821b5e3c6e68a4ULL},
      {1, false, 0x4c59b4480921418cULL},
      {3, true, 0xd07b3a96f01b374fULL},
      {3, false, 0x10e9a93b9c7dd53aULL},
  };
  for (const auto& tc : cases) {
    Layout layout;
    const auto data = layout.block(steane());
    auto anc = allocate_recovery_ancillas(layout, steane(), tc.rounds);
    Circuit c(layout.total());
    RecoveryOptions opt;
    opt.rounds = tc.rounds;
    opt.measurement_free = tc.mf;
    append_recovery(c, steane(), data, anc, opt);
    EXPECT_EQ(fingerprint(c), tc.want)
        << "rounds=" << tc.rounds << " mf=" << tc.mf;
  }
}

TEST(GoldenEquiv, TGate) {
  Layout layout;
  TGateRegisters regs;
  regs.data = layout.block(steane());
  regs.special = layout.block(steane());
  regs.n_anc = allocate_ngate_ancillas(layout, steane(), 3);
  regs.control = layout.reg(7);
  auto ss = allocate_special_state_ancillas(layout, 7, 3);

  Circuit g(layout.total());
  append_ft_t_gadget(g, steane(), regs);
  EXPECT_EQ(fingerprint(g), 0x53972a719ea6ae6fULL);

  Circuit f(layout.total());
  append_ft_t_gate(f, steane(), regs, ss);
  EXPECT_EQ(fingerprint(f), 0xbef996f8e8e745cbULL);
}

TEST(GoldenEquiv, SpecialStates) {
  {
    Layout layout;
    const auto special = layout.block(steane());
    auto ss = allocate_special_state_ancillas(layout, 7, 3);
    Circuit c(layout.total());
    append_t_state_prep(c, steane(), special, ss, 3);
    EXPECT_EQ(fingerprint(c), 0xdc3bda176377e237ULL);
  }
  {
    Layout layout;
    const auto a = layout.block(steane());
    const auto b = layout.block(steane());
    const auto cc = layout.block(steane());
    auto ss = allocate_special_state_ancillas(layout, 7, 3);
    Circuit c(layout.total());
    append_and_state_prep(c, steane(), a, b, cc, ss, 3);
    EXPECT_EQ(fingerprint(c), 0x321680d7326a942cULL);
  }
  {
    // With cat-verification bits enabled.
    Layout layout;
    const auto special = layout.block(steane());
    auto ss = allocate_special_state_ancillas(layout, 7, 3);
    ss.verify = layout.reg(6);
    Circuit c(layout.total());
    append_t_state_prep(c, steane(), special, ss, 3);
    EXPECT_EQ(fingerprint(c), 0xd37266a94b2f08f7ULL);
  }
}

TEST(GoldenEquiv, CodedToffoli) {
  Layout layout;
  CodedToffoliRegs r;
  r.a = layout.block(steane());
  r.b = layout.block(steane());
  r.c = layout.block(steane());
  r.x = layout.block(steane());
  r.y = layout.block(steane());
  r.z = layout.block(steane());
  r.ss_anc = allocate_special_state_ancillas(layout, 7, 3);
  r.n_anc = allocate_ngate_ancillas(layout, steane(), 3);
  r.m1 = layout.reg(7);
  r.m2 = layout.reg(7);
  r.m3 = layout.reg(7);
  r.m12 = layout.reg(7);

  Circuit g(layout.total());
  append_coded_toffoli_gadget(g, steane(), r);
  EXPECT_EQ(fingerprint(g), 0xa4d67112594c3d5aULL);

  Circuit f(layout.total());
  append_coded_toffoli(f, steane(), r);
  EXPECT_EQ(fingerprint(f), 0x24212abac319ab40ULL);
}

TEST(GoldenEquiv, CatStates) {
  Layout layout;
  const auto cat = layout.reg(7);
  const auto verify = layout.reg(6);
  Circuit c(layout.total());
  append_cat_prep(c, cat);
  EXPECT_EQ(fingerprint(c), 0x3ce29edc0b10f00eULL);
  Circuit v(layout.total());
  append_verified_cat(v, cat, verify);
  EXPECT_EQ(fingerprint(v), 0x5269093f243e7d54ULL);
}

TEST(GoldenEquiv, MeasuredBaselines) {
  {
    Layout layout;
    const auto data = layout.block(steane());
    const auto special = layout.block(steane());
    Circuit c(layout.total());
    append_measured_t_gadget(c, steane(), data, special);
    EXPECT_EQ(fingerprint(c), 0xa063bb691222f524ULL);
  }
  {
    Layout layout;
    const auto block = layout.block(steane());
    const auto anc = layout.bit();
    Circuit c(layout.total());
    append_measured_verification_ec(c, steane(), block, anc);
    EXPECT_EQ(fingerprint(c), 0x5414cd5fc635c258ULL);
  }
}

TEST(GoldenEquiv, GadgetExperiments) {
  // The default GadgetSpec scenario is (steane, k=1 -> 3 repetitions,
  // paper noise) — exactly the seed defaults.  Both the prep and the
  // gadget circuits, and the experiment width, must be unchanged.
  struct Case {
    const char* gadget;
    std::uint64_t prep;
    std::uint64_t want;
    std::size_t qubits;
  };
  const Case cases[] = {
      {"ngate", 0x896188f6fbfc59f9ULL, 0x5c9ec6d76f2692f9ULL, 22},
      {"recovery", 0x5545ba1f7018412dULL, 0xd07b3a96f01b374fULL, 78},
      {"recovery-measured", 0x5545ba1f7018412dULL, 0x10e9a93b9c7dd53aULL, 78},
  };
  for (const auto& tc : cases) {
    analysis::GadgetSpec spec;
    spec.gadget = tc.gadget;
    const auto built = analysis::build_gadget_experiment(spec);
    EXPECT_EQ(built.ex.num_qubits, tc.qubits) << tc.gadget;
    EXPECT_EQ(fingerprint(built.ex.prep), tc.prep) << tc.gadget;
    EXPECT_EQ(fingerprint(built.ex.gadget), tc.want) << tc.gadget;
  }
}

TEST(GoldenEquiv, GadgetExperimentInputs) {
  // Each logical input builds the experiment the Fig. 1 / Sec. 5 benches
  // built by hand before they moved onto the spec: the prep encodes the
  // input, the gadget circuit does not depend on it.
  using analysis::LogicalInput;
  struct Case {
    const char* gadget;
    LogicalInput input;
    std::uint64_t prep;
    std::uint64_t want;
    std::size_t qubits;
  };
  const Case cases[] = {
      {"ngate", LogicalInput::Zero, 0x94ee24855c841fa5ULL,
       0x5c9ec6d76f2692f9ULL, 22},
      {"ngate", LogicalInput::One, 0x896188f6fbfc59f9ULL,
       0x5c9ec6d76f2692f9ULL, 22},
      {"recovery", LogicalInput::Zero, 0x5545ba1f7018412dULL,
       0xd07b3a96f01b374fULL, 78},
      {"recovery", LogicalInput::Plus, 0xccaafb3998d7b6f0ULL,
       0xd07b3a96f01b374fULL, 78},
  };
  for (const auto& tc : cases) {
    analysis::GadgetSpec spec;
    spec.gadget = tc.gadget;
    spec.input = tc.input;
    const auto built = analysis::build_gadget_experiment(spec);
    const std::string label =
        std::string(tc.gadget) + " input " +
        std::to_string(static_cast<int>(tc.input));
    EXPECT_EQ(built.ex.num_qubits, tc.qubits) << label;
    EXPECT_EQ(fingerprint(built.ex.prep), tc.prep) << label;
    EXPECT_EQ(fingerprint(built.ex.gadget), tc.want) << label;
    EXPECT_EQ(built.spec.input, tc.input) << label;
  }
}

TEST(GoldenEquiv, UnsupportedGadgetInputIsRefused) {
  // The N gate copies a Z-basis value; |+>_L has none.
  analysis::GadgetSpec spec;
  spec.input = analysis::LogicalInput::Plus;
  EXPECT_THROW((void)analysis::build_gadget_experiment(spec),
               ContractViolation);
  spec.gadget = "recovery-measured";
  spec.input = analysis::LogicalInput::One;
  EXPECT_THROW((void)analysis::build_gadget_experiment(spec),
               ContractViolation);
}

}  // namespace
}  // namespace eqc::ftqc
