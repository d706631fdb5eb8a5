// Cross-module integration tests: full protocols composed end-to-end.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "circuit/execute.h"
#include "circuit/sv_backend.h"
#include "circuit/tab_backend.h"
#include "codes/steane.h"
#include "common/assert.h"
#include "ensemble/machine.h"
#include "ftqc/baselines.h"
#include "ftqc/ft_tgate.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "ftqc/recovery.h"
#include "noise/model.h"

namespace eqc {
namespace {

using circuit::Circuit;
using circuit::SvBackend;
using circuit::TabBackend;
using codes::Steane;
using pauli::Pauli;
using pauli::PauliString;

// Encoded memory: K rounds of measurement-free recovery with a planted
// error before each round; the logical qubit must survive all of them.
TEST(Integration, MemorySurvivesRepeatedRecoveryRounds) {
  ftqc::Layout layout;
  const codes::CodeBlock data = layout.block(codes::steane_code());
  auto anc = ftqc::allocate_recovery_ancillas(layout, codes::steane_code());

  Circuit prep(layout.total());
  codes::steane_code().append_encode_plus(prep, data);
  TabBackend b(layout.total(), Rng(5));
  circuit::execute(prep, b);

  Rng err_rng(17);
  for (int round = 0; round < 5; ++round) {
    // One adversarial weight-1 error per round.
    b.tableau().apply_pauli(PauliString::random_single(
        layout.total(), data.q[err_rng.below(7)], err_rng));
    Circuit rec(layout.total());
    ftqc::append_recovery(rec, codes::steane_code(), data, anc);
    circuit::execute(rec, b);
    EXPECT_TRUE(codes::steane_code().block_in_codespace(b.tableau(), data))
        << "round " << round;
  }
  EXPECT_EQ(b.tableau().expectation_pauli(
                codes::steane_code().logical_x_op(layout.total(), data)),
            1.0);
}

// The same memory protocol with the measurement-based recovery baseline.
TEST(Integration, MemoryWithMeasuredRecoveryBaseline) {
  ftqc::Layout layout;
  const codes::CodeBlock data = layout.block(codes::steane_code());
  auto anc = ftqc::allocate_recovery_ancillas(layout, codes::steane_code());

  Circuit prep(layout.total());
  codes::steane_code().append_encode_zero(prep, data);
  TabBackend b(layout.total(), Rng(5));
  circuit::execute(prep, b);

  Rng err_rng(19);
  for (int round = 0; round < 5; ++round) {
    b.tableau().apply_pauli(PauliString::random_single(
        layout.total(), data.q[err_rng.below(7)], err_rng));
    Circuit rec(layout.total());
    ftqc::RecoveryOptions opt;
    opt.measurement_free = false;
    ftqc::append_recovery(rec, codes::steane_code(), data, anc, opt);
    circuit::execute(rec, b);
  }
  EXPECT_TRUE(codes::steane_code().block_in_codespace(b.tableau(), data));
  EXPECT_EQ(codes::steane_code().logical_z_expectation(b.tableau(), data), 1.0);
}

// T gate composed with recovery: apply the measurement-free T, inject an
// error, recover, and verify the state is still T_L |+>_L.
TEST(Integration, TGateThenRecovery) {
  const double inv = 1.0 / std::sqrt(2.0);
  const cplx omega = std::polar(1.0, M_PI / 4);

  ftqc::Layout layout;
  ftqc::TGateRegisters regs;
  regs.data = layout.block(codes::steane_code());
  regs.special = layout.block(codes::steane_code());
  regs.n_anc.copies = layout.reg(1);
  regs.n_anc.syndrome = {0, 1, 2};
  regs.n_anc.work = {3, 4};
  regs.control.assign(regs.special.q.begin(), regs.special.q.end());
  const auto ec_ancilla = layout.bit();

  // Initial state: |+>_L (x) |psi_0>.
  const auto data_amps = Steane::encoded_amplitudes(inv, inv);
  const auto psi0 = Steane::encoded_amplitudes(inv, inv * omega);
  std::vector<cplx> amp(std::uint64_t{1} << layout.total(), cplx{0, 0});
  for (unsigned d = 0; d < 128; ++d)
    for (unsigned s = 0; s < 128; ++s)
      amp[(std::uint64_t{s} << 7) | d] = data_amps[d] * psi0[s];
  SvBackend b(qsim::StateVector::from_amplitudes(std::move(amp)), Rng(3));

  Circuit gadget(layout.total());
  ftqc::NGateOptions opt;
  opt.repetitions = 1;
  opt.syndrome_check = false;
  ftqc::append_ft_t_gadget(gadget, codes::steane_code(), regs, opt);
  circuit::execute(gadget, b);

  // Inject a weight-1 error, then run (noiseless, measured) verification EC.
  b.state().apply_pauli(
      PauliString::single(layout.total(), regs.data.q[4], Pauli::Y));
  Circuit rec(layout.total());
  ftqc::append_measured_verification_ec(rec, codes::steane_code(),
                                        regs.data, ec_ancilla);
  circuit::execute(rec, b);

  const auto want = Steane::encoded_amplitudes(inv, omega * inv);
  std::vector<std::size_t> qs(regs.data.q.begin(), regs.data.q.end());
  EXPECT_NEAR(b.state().subsystem_fidelity(qs, want), 1.0, 1e-9);
}

// Two encoded qubits: transversal CNOT entangles them into a logical Bell
// pair; measurement-free recovery on both blocks preserves it.
TEST(Integration, LogicalBellPairSurvivesRecovery) {
  ftqc::Layout layout;
  const codes::CodeBlock a = layout.block(codes::steane_code());
  const codes::CodeBlock c = layout.block(codes::steane_code());
  auto anc = ftqc::allocate_recovery_ancillas(layout, codes::steane_code());

  Circuit prep(layout.total());
  codes::steane_code().append_encode_plus(prep, a);
  codes::steane_code().append_encode_zero(prep, c);
  codes::steane_code().append_logical_cnot(prep, a, c);
  TabBackend b(layout.total(), Rng(7));
  circuit::execute(prep, b);

  // Logical Bell stabilizers X_L X_L and Z_L Z_L.
  auto xx = codes::steane_code().logical_x_op(layout.total(), a);
  xx.multiply_by(codes::steane_code().logical_x_op(layout.total(), c));
  auto zz = codes::steane_code().logical_z_op(layout.total(), a);
  zz.multiply_by(codes::steane_code().logical_z_op(layout.total(), c));
  EXPECT_TRUE(b.tableau().state_is_stabilized_by(xx));
  EXPECT_TRUE(b.tableau().state_is_stabilized_by(zz));

  // Damage each block and recover both.
  b.tableau().apply_pauli(
      PauliString::single(layout.total(), a.q[2], Pauli::X));
  b.tableau().apply_pauli(
      PauliString::single(layout.total(), c.q[5], Pauli::Z));
  for (const codes::CodeBlock* blk : {&a, &c}) {
    Circuit rec(layout.total());
    ftqc::append_recovery(rec, codes::steane_code(), *blk, anc);
    circuit::execute(rec, b);
  }
  EXPECT_TRUE(b.tableau().state_is_stabilized_by(xx));
  EXPECT_TRUE(b.tableau().state_is_stabilized_by(zz));
}

// The ensemble machine refuses protocols that need measurement, but runs
// the measurement-free N gate and reads the classical register out as an
// expectation value — the full "bulk fault tolerance" story end to end.
TEST(Integration, EnsembleRunsTheNGate) {
  ftqc::Layout layout;
  const codes::CodeBlock source = layout.block(codes::steane_code());
  auto anc = ftqc::allocate_ngate_ancillas(layout, codes::steane_code(), 3);
  const auto out = layout.reg(7);

  Circuit c(layout.total());
  codes::steane_code().append_encode_zero(c, source);
  codes::steane_code().append_logical_x(c, source);  // |1>_L
  ftqc::append_ngate(c, codes::steane_code(), source, out, anc);

  ensemble::EnsembleMachine machine(layout.total(), 0, 1);
  machine.run(c);
  for (auto q : out) EXPECT_NEAR(machine.readout_z(q), -1.0, 1e-9);
}

// Under sampled per-computer noise the ensemble's classical-register signal
// degrades gracefully rather than collapsing (each computer still holds a
// definite register value).
TEST(Integration, EnsembleNGateUnderNoise) {
  // Small configuration (1 repetition, 15 qubits) so the multi-trajectory
  // state-vector ensemble stays fast; the FT properties themselves are the
  // tableau experiments' job.
  ftqc::Layout layout;
  const codes::CodeBlock source = layout.block(codes::steane_code());
  auto anc = ftqc::allocate_ngate_ancillas(layout, codes::steane_code(), 1);
  const auto out = layout.reg(3);

  Circuit c(layout.total());
  codes::steane_code().append_encode_zero(c, source);
  codes::steane_code().append_logical_x(c, source);
  ftqc::NGateOptions opt;
  opt.repetitions = 1;
  ftqc::append_ngate(c, codes::steane_code(), source, out, anc, opt);

  ensemble::EnsembleMachine machine(layout.total(), 12, 21);
  const auto model = noise::NoiseModel::paper_model(1e-3);
  machine.run(c, &model);
  double sum = 0;
  for (auto q : out) sum += machine.readout_z(q);
  EXPECT_LT(sum / 3.0, -0.7);  // still clearly reads "1"
}

}  // namespace
}  // namespace eqc
