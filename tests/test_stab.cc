// Unit + cross-validation tests for the CHP stabilizer tableau.
//
// The centerpiece is a property test: random Clifford circuits are run on
// both the tableau and the exact state vector, and every single-qubit
// probability and every Pauli expectation must agree.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "common/assert.h"
#include "common/rng.h"
#include "pauli/pauli_string.h"
#include "qsim/gates.h"
#include "qsim/state_vector.h"
#include "stab/tableau.h"
#include "testing/circuit_gen.h"

namespace eqc::stab {
namespace {

using pauli::Pauli;
using pauli::PauliString;
using qsim::StateVector;

constexpr double kEps = 1e-9;

// <psi|P|psi> computed densely.
cplx dense_expectation(const StateVector& sv, const PauliString& p) {
  StateVector tmp = sv;
  tmp.apply_pauli(p);
  return sv.inner_product(tmp);
}

TEST(Tableau, InitialStateStabilizedByZ) {
  Tableau tab(3);
  for (std::size_t q = 0; q < 3; ++q) {
    EXPECT_TRUE(tab.is_deterministic_z(q));
    EXPECT_FALSE(tab.deterministic_z_value(q));
    EXPECT_EQ(tab.expectation_z(q), 1.0);
  }
  tab.check_invariants();
}

TEST(Tableau, XFlipsDeterministicValue) {
  Tableau tab(2);
  tab.x(1);
  EXPECT_EQ(tab.expectation_z(1), -1.0);
  EXPECT_EQ(tab.expectation_z(0), 1.0);
}

TEST(Tableau, HMakesOutcomeRandom) {
  Tableau tab(1);
  tab.h(0);
  EXPECT_FALSE(tab.is_deterministic_z(0));
  EXPECT_EQ(tab.expectation_z(0), 0.0);
}

TEST(Tableau, MeasurementCollapsesAndRepeats) {
  Rng rng(2);
  for (int rep = 0; rep < 20; ++rep) {
    Tableau tab(1);
    tab.h(0);
    const bool m = tab.measure(0, rng);
    EXPECT_TRUE(tab.is_deterministic_z(0));
    EXPECT_EQ(tab.measure(0, rng), m);
  }
}

TEST(Tableau, MeasurementIsUnbiased) {
  Rng rng(3);
  int ones = 0;
  for (int i = 0; i < 2000; ++i) {
    Tableau tab(1);
    tab.h(0);
    ones += tab.measure(0, rng) ? 1 : 0;
  }
  EXPECT_NEAR(ones / 2000.0, 0.5, 0.05);
}

TEST(Tableau, BellPairCorrelations) {
  Rng rng(7);
  for (int i = 0; i < 30; ++i) {
    Tableau tab(2);
    tab.h(0);
    tab.cnot(0, 1);
    EXPECT_FALSE(tab.is_deterministic_z(0));
    const bool m0 = tab.measure(0, rng);
    EXPECT_TRUE(tab.is_deterministic_z(1));
    EXPECT_EQ(tab.measure(1, rng), m0);
  }
}

TEST(Tableau, GhzStabilizers) {
  Tableau tab(4);
  tab.h(0);
  for (std::size_t q = 1; q < 4; ++q) tab.cnot(0, q);
  EXPECT_TRUE(tab.state_is_stabilized_by(PauliString::from_string("XXXX")));
  EXPECT_TRUE(tab.state_is_stabilized_by(PauliString::from_string("ZZII")));
  EXPECT_TRUE(tab.state_is_stabilized_by(PauliString::from_string("IZZI")));
  EXPECT_FALSE(tab.state_is_stabilized_by(PauliString::from_string("ZIII")));
  // -XXXX does not stabilize GHZ+.
  auto minus = PauliString::from_string("XXXX");
  minus.set_phase(2);
  EXPECT_FALSE(tab.state_is_stabilized_by(minus));
}

TEST(Tableau, ApplyPauliFlipsSigns) {
  Tableau tab(2);
  tab.h(0);
  tab.cnot(0, 1);  // stabilized by XX, ZZ
  tab.apply_pauli(PauliString::from_string("ZI"));
  auto mxx = PauliString::from_string("XX");
  mxx.set_phase(2);
  EXPECT_TRUE(tab.state_is_stabilized_by(mxx));
  EXPECT_TRUE(tab.state_is_stabilized_by(PauliString::from_string("ZZ")));
}

TEST(Tableau, ResetForcesZero) {
  Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    Tableau tab(2);
    tab.h(0);
    tab.cnot(0, 1);
    tab.reset(0, rng);
    EXPECT_EQ(tab.expectation_z(0), 1.0);
    tab.check_invariants();
  }
}

TEST(Tableau, MeasurePauliDeterministicCases) {
  Rng rng(11);
  Tableau tab(2);
  tab.h(0);
  tab.cnot(0, 1);
  // XX stabilizes Bell+ -> outcome 0, deterministic.
  EXPECT_FALSE(tab.measure_pauli(PauliString::from_string("XX"), rng));
  EXPECT_FALSE(tab.measure_pauli(PauliString::from_string("ZZ"), rng));
  // After a Z error on one half, XX anti-stabilizes.
  tab.z(0);
  EXPECT_TRUE(tab.measure_pauli(PauliString::from_string("XX"), rng));
}

TEST(Tableau, MeasurePauliRandomCaseInstallsStabilizer) {
  Rng rng(13);
  for (int i = 0; i < 20; ++i) {
    Tableau tab(2);
    const bool m = tab.measure_pauli(PauliString::from_string("XX"), rng);
    auto xx = PauliString::from_string("XX");
    if (m) xx.set_phase(2);
    EXPECT_TRUE(tab.state_is_stabilized_by(xx));
    // Z0Z1 survives measuring XX (they commute).
    EXPECT_TRUE(tab.state_is_stabilized_by(PauliString::from_string("ZZ")));
    tab.check_invariants();
  }
}

TEST(Tableau, MeasurePauliRejectsNonHermitian) {
  Rng rng(1);
  Tableau tab(1);
  auto p = PauliString::single(1, 0, Pauli::X);
  p.set_phase(1);
  EXPECT_THROW(tab.measure_pauli(p, rng), ContractViolation);
}

// --- Cross-validation against the state vector ---------------------------

struct RandomCliffordCase {
  std::uint64_t seed;
  std::size_t qubits;
  int gates;
};

class CrossValidation
    : public ::testing::TestWithParam<RandomCliffordCase> {};

TEST_P(CrossValidation, TableauMatchesStateVector) {
  const auto param = GetParam();
  Rng rng(param.seed);
  Tableau tab(param.qubits);
  StateVector sv(param.qubits);

  // Shared fuzz-harness generator (src/testing), applied to both
  // representations op by op.
  const auto c =
      testing::random_clifford_circuit(param.qubits, param.gates, rng);
  for (const auto& op : c.ops()) {
    const std::size_t q = op.q[0];
    const std::size_t q2 = op.q[1];
    switch (op.kind) {
      case circuit::OpKind::H: tab.h(q); sv.apply1(q, qsim::gate_h()); break;
      case circuit::OpKind::S: tab.s(q); sv.apply1(q, qsim::gate_s()); break;
      case circuit::OpKind::Sdg:
        tab.sdg(q); sv.apply1(q, qsim::gate_sdg()); break;
      case circuit::OpKind::X: tab.x(q); sv.apply1(q, qsim::gate_x()); break;
      case circuit::OpKind::Y: tab.y(q); sv.apply1(q, qsim::gate_y()); break;
      case circuit::OpKind::Z: tab.z(q); sv.apply1(q, qsim::gate_z()); break;
      case circuit::OpKind::CNOT: tab.cnot(q, q2); sv.apply_cnot(q, q2); break;
      case circuit::OpKind::CZ: tab.cz(q, q2); sv.apply_cz(q, q2); break;
      case circuit::OpKind::Swap: tab.swap(q, q2); sv.apply_swap(q, q2); break;
      default: FAIL() << "unexpected op in Clifford gate set";
    }
  }

  tab.check_invariants();
  // Every single-qubit Z probability agrees.
  for (std::size_t q = 0; q < param.qubits; ++q)
    EXPECT_NEAR(tab.expectation_z(q), sv.expectation_z(q), kEps);

  // Every stabilizer generator reported by the tableau stabilizes the dense
  // state, and random Paulis have matching expectations.
  for (std::size_t i = 0; i < param.qubits; ++i) {
    const auto gst = tab.stabilizer(i);
    EXPECT_NEAR(dense_expectation(sv, gst).real(), 1.0, 1e-8);
  }
  Rng prng(param.seed ^ 0xABCD);
  for (int i = 0; i < 10; ++i) {
    PauliString p(param.qubits);
    for (std::size_t q = 0; q < param.qubits; ++q)
      p.set(q, static_cast<Pauli>(prng.below(4)));
    if (p.is_identity()) continue;
    EXPECT_NEAR(tab.expectation_pauli(p), dense_expectation(sv, p).real(),
                1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomCircuits, CrossValidation,
    ::testing::Values(RandomCliffordCase{101, 2, 20},
                      RandomCliffordCase{102, 3, 40},
                      RandomCliffordCase{103, 4, 60},
                      RandomCliffordCase{104, 5, 80},
                      RandomCliffordCase{105, 6, 120},
                      RandomCliffordCase{106, 4, 200},
                      RandomCliffordCase{107, 7, 150},
                      RandomCliffordCase{108, 8, 250}));

// Measurement statistics cross-check: tableau respects Born probabilities
// after a random circuit (tested via many collapses on copies).
TEST(CrossValidationMeasure, BornRule) {
  Rng circuit_rng(2024);
  Tableau tab(3);
  StateVector sv(3);
  // A fixed small circuit creating partial entanglement.
  tab.h(0); sv.apply1(0, qsim::gate_h());
  tab.cnot(0, 1); sv.apply_cnot(0, 1);
  tab.s(1); sv.apply1(1, qsim::gate_s());
  tab.h(2); sv.apply1(2, qsim::gate_h());
  tab.cz(1, 2); sv.apply_cz(1, 2);
  tab.h(1); sv.apply1(1, qsim::gate_h());

  const double p1 = sv.prob_one(1);
  Rng mrng(4);
  int ones = 0;
  const int shots = 4000;
  for (int i = 0; i < shots; ++i) {
    Tableau copy = tab;
    ones += copy.measure(1, mrng) ? 1 : 0;
  }
  EXPECT_NEAR(ones / double(shots), p1, 0.04);
}

// --- Word-level kernels across word boundaries ---------------------------
//
// Rows are packed 64 qubits to a word, so every gate kernel must be right
// for qubits in any word and for two-qubit gates whose operands share a
// word or straddle words.  The references below are the plain
// PauliString algorithms, run through the public row accessors.

void apply_gate(Tableau& tab, const circuit::Op& op) {
  const std::size_t q = op.q[0];
  const std::size_t q2 = op.q[1];
  switch (op.kind) {
    case circuit::OpKind::H: tab.h(q); break;
    case circuit::OpKind::S: tab.s(q); break;
    case circuit::OpKind::Sdg: tab.sdg(q); break;
    case circuit::OpKind::X: tab.x(q); break;
    case circuit::OpKind::Y: tab.y(q); break;
    case circuit::OpKind::Z: tab.z(q); break;
    case circuit::OpKind::CNOT: tab.cnot(q, q2); break;
    case circuit::OpKind::CZ: tab.cz(q, q2); break;
    case circuit::OpKind::Swap: tab.swap(q, q2); break;
    default: FAIL() << "unexpected op in Clifford gate set";
  }
}

void conjugate(PauliString& p, const circuit::Op& op) {
  const std::size_t q = op.q[0];
  const std::size_t q2 = op.q[1];
  switch (op.kind) {
    case circuit::OpKind::H: p.conjugate_h(q); break;
    case circuit::OpKind::S: p.conjugate_s(q); break;
    case circuit::OpKind::Sdg: p.conjugate_sdg(q); break;
    case circuit::OpKind::X: p.conjugate_x(q); break;
    case circuit::OpKind::Y: p.conjugate_y(q); break;
    case circuit::OpKind::Z: p.conjugate_z(q); break;
    case circuit::OpKind::CNOT: p.conjugate_cnot(q, q2); break;
    case circuit::OpKind::CZ: p.conjugate_cz(q, q2); break;
    case circuit::OpKind::Swap: p.conjugate_swap(q, q2); break;
    default: FAIL() << "unexpected op in Clifford gate set";
  }
}

// Stabilizers 0..n-1, then destabilizers 0..n-1.
std::vector<PauliString> rows_of(const Tableau& tab) {
  std::vector<PauliString> rows;
  for (std::size_t i = 0; i < tab.num_qubits(); ++i)
    rows.push_back(tab.stabilizer(i));
  for (std::size_t i = 0; i < tab.num_qubits(); ++i)
    rows.push_back(tab.destabilizer(i));
  return rows;
}

// <P> by the stabilizer-basis decomposition on PauliStrings.
double reference_expectation(const Tableau& tab, const PauliString& p) {
  const std::size_t n = tab.num_qubits();
  if (!p.is_hermitian()) return 0.0;
  for (std::size_t i = 0; i < n; ++i)
    if (!p.commutes_with(tab.stabilizer(i))) return 0.0;
  PauliString acc(n);
  for (std::size_t i = 0; i < n; ++i)
    if (!p.commutes_with(tab.destabilizer(i)))
      acc.multiply_by(tab.stabilizer(i));
  if (acc == p) return 1.0;
  PauliString minus_p = p;
  minus_p.set_phase(p.phase() + 2);
  if (acc == minus_p) return -1.0;
  return 0.0;
}

// Deterministic Z_q value: the product of the stabilizers whose
// destabilizer has an X bit at q is +-Z_q.
bool reference_z_value(const Tableau& tab, std::size_t q) {
  const std::size_t n = tab.num_qubits();
  PauliString acc(n);
  for (std::size_t i = 0; i < n; ++i)
    if (tab.destabilizer(i).x_bit(q)) acc.multiply_by(tab.stabilizer(i));
  const PauliString zq = PauliString::single(n, q, Pauli::Z);
  if (acc == zq) return false;
  PauliString minus_zq = zq;
  minus_zq.set_phase(2);
  EXPECT_TRUE(acc == minus_zq) << "Z_" << q << " is not in the group";
  return true;
}

double reference_expectation_z(const Tableau& tab, std::size_t q) {
  for (std::size_t i = 0; i < tab.num_qubits(); ++i)
    if (tab.stabilizer(i).x_bit(q)) return 0.0;
  return reference_z_value(tab, q) ? -1.0 : 1.0;
}

void expect_readouts_match_reference(const Tableau& tab, Rng& rng) {
  const std::size_t n = tab.num_qubits();
  for (std::size_t q = 0; q < n; ++q) {
    const double e = reference_expectation_z(tab, q);
    ASSERT_EQ(tab.expectation_z(q), e) << "q = " << q;
    ASSERT_EQ(tab.is_deterministic_z(q), e != 0.0) << "q = " << q;
    if (e != 0.0) {
      ASSERT_EQ(tab.deterministic_z_value(q), e == -1.0) << "q = " << q;
    }
  }
  ASSERT_TRUE(tab.state_is_stabilized_by(PauliString(n)));
  // Signed stabilizer-group elements (+1, then -1 with the sign flipped),
  // Y-carrying rows included, and random Paulis (mostly 0).
  for (int k = 0; k < 8; ++k) {
    PauliString g(n);
    for (std::size_t i = 0; i < n; ++i)
      if (rng.below(2) == 0) g.multiply_by(tab.stabilizer(i));
    if (g.is_identity()) continue;
    ASSERT_EQ(tab.expectation_pauli(g), 1.0) << g.to_string();
    ASSERT_EQ(reference_expectation(tab, g), 1.0) << g.to_string();
    g.set_phase(g.phase() + 2);
    ASSERT_EQ(tab.expectation_pauli(g), -1.0) << g.to_string();
    ASSERT_FALSE(tab.state_is_stabilized_by(g)) << g.to_string();
    g.set_phase(g.phase() + 1);  // non-Hermitian
    ASSERT_EQ(tab.expectation_pauli(g), 0.0) << g.to_string();
    const PauliString r = PauliString::random(n, rng);
    ASSERT_EQ(tab.expectation_pauli(r), reference_expectation(tab, r))
        << r.to_string();
  }
}

class TableauWords : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TableauWords, GatesConjugateEveryRowAndReadoutsMatchReference) {
  const std::size_t n = GetParam();
  Rng rng(0x7AB1E + n);
  circuit::Circuit c(n);
  if (n == 1) {
    for (int g = 0; g < 60; ++g) {
      switch (rng.below(6)) {
        case 0: c.h(0); break;
        case 1: c.s(0); break;
        case 2: c.sdg(0); break;
        case 3: c.x(0); break;
        case 4: c.y(0); break;
        case 5: c.z(0); break;
      }
    }
  } else {
    // Spread X/Y support over every word first so later gates move
    // non-trivial rows, then pin each two-qubit kernel with operands in
    // one word and in different words (both orders), then go random.
    for (std::uint32_t q = 0; q < n; q += 3) c.h(q);
    for (std::uint32_t q = 1; q < n; q += 5) c.s(q);
    const std::uint32_t last = static_cast<std::uint32_t>(n - 1);
    const std::uint32_t mid = static_cast<std::uint32_t>(n / 2);
    const std::pair<std::uint32_t, std::uint32_t> pairs[] = {
        {0, 1}, {1, 0}, {0, last}, {last, 0}, {mid, last}, {last, mid}};
    for (const auto& [a, b] : pairs) {
      if (a == b) continue;
      c.cnot(a, b).cz(a, b).h(b).swap(a, b).cnot(b, a);
    }
    c.append(testing::random_clifford_circuit(n, static_cast<int>(4 * n + 40),
                                              rng));
  }

  Tableau tab(n);
  std::vector<PauliString> rows = rows_of(tab);
  std::size_t step = 0;
  for (const auto& op : c.ops()) {
    apply_gate(tab, op);
    for (auto& row : rows) conjugate(row, op);
    const std::vector<PauliString> got = rows_of(tab);
    for (std::size_t i = 0; i < rows.size(); ++i)
      ASSERT_TRUE(got[i] == rows[i])
          << "op " << step << " (" << circuit::name(op.kind) << " " << op.q[0]
          << "," << op.q[1] << ") row " << i << ": got " << got[i].to_string()
          << " phase " << got[i].phase() << ", want " << rows[i].to_string()
          << " phase " << rows[i].phase();
    if (++step % 32 == 0) expect_readouts_match_reference(tab, rng);
  }
  tab.check_invariants();
  expect_readouts_match_reference(tab, rng);
}

INSTANTIATE_TEST_SUITE_P(AcrossWordBoundaries, TableauWords,
                         ::testing::Values(1, 63, 64, 65, 130));

}  // namespace
}  // namespace eqc::stab
