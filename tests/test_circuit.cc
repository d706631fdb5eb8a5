// Tests for the circuit IR, scheduler, executor, fault sites and injectors.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/experiments.h"
#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/schedule.h"
#include "circuit/sv_backend.h"
#include "circuit/tab_backend.h"
#include "common/assert.h"
#include "common/rng.h"
#include "noise/model.h"
#include "qsim/gates.h"

namespace eqc::circuit {
namespace {

using pauli::Pauli;
using pauli::PauliString;

TEST(Circuit, BuilderRecordsOps) {
  Circuit c(3);
  c.h(0).cnot(0, 1).ccx(0, 1, 2);
  ASSERT_EQ(c.size(), 3u);
  EXPECT_EQ(c.ops()[0].kind, OpKind::H);
  EXPECT_EQ(c.ops()[1].kind, OpKind::CNOT);
  EXPECT_EQ(c.ops()[2].kind, OpKind::CCX);
  EXPECT_EQ(c.ops()[2].q[2], 2u);
}

TEST(Circuit, RejectsBadOperands) {
  Circuit c(2);
  EXPECT_THROW(c.h(2), ContractViolation);
  EXPECT_THROW(c.cnot(0, 0), ContractViolation);
  EXPECT_THROW(c.cnot(0, 5), ContractViolation);
}

TEST(Circuit, MeasureAllocatesSlots) {
  Circuit c(2);
  const auto s0 = c.measure_z(0);
  const auto s1 = c.measure_z(1);
  EXPECT_EQ(s0, 0u);
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(c.num_cbits(), 2u);
}

TEST(Circuit, ClassicalFuncGuardsConditionedOps) {
  Circuit c(2);
  const auto slot = c.measure_z(0);
  const auto f = c.cbit_func(slot);
  c.x_if(f, 1);
  EXPECT_EQ(c.ops().back().kind, OpKind::XIfC);
  EXPECT_THROW(c.x_if(99, 1), ContractViolation);
}

TEST(Schedule, ParallelOpsShareMoment) {
  Circuit c(4);
  c.h(0).h(1).h(2).h(3).cnot(0, 1).cnot(2, 3);
  const auto sched = schedule(c);
  EXPECT_EQ(sched.depth(), 2u);
  EXPECT_EQ(sched.moments[0].size(), 4u);
  EXPECT_EQ(sched.moments[1].size(), 2u);
}

TEST(Schedule, DependentOpsSequenced) {
  Circuit c(2);
  c.h(0).cnot(0, 1).h(0);
  const auto sched = schedule(c);
  EXPECT_EQ(sched.depth(), 3u);
}

TEST(Schedule, IdleLocationsCounted) {
  Circuit c(2);
  // Qubit 1 is used at moments 0 and 2 (the CNOT waits for qubit 0);
  // it idles at moment 1.
  c.h(1).h(0).h(0).cnot(0, 1);
  const auto sched = schedule(c);
  ASSERT_EQ(sched.depth(), 3u);
  EXPECT_EQ(sched.idle[1].size(), 1u);
  EXPECT_EQ(sched.idle[1][0], 1u);
  EXPECT_EQ(sched.total_idle_locations(), 1u);
}

TEST(Schedule, IdleLocationsWithReusedAndSingleUseQubits) {
  Circuit c(3);
  // Qubit 0 acts every moment (never idles).  Qubit 1 is reused — it acts
  // at the first and last moments and idles in between.  Qubit 2 is used
  // exactly once: idle locations only exist while a qubit is live (between
  // its first and last use), so it contributes none.
  c.h(1).h(2).h(0).h(0).h(0).cnot(0, 1);
  const auto sched = schedule(c);
  ASSERT_EQ(sched.depth(), 4u);
  // idle[t] lists the qubits idling at moment t: only qubit 1, at the two
  // moments between its first and last use.
  EXPECT_TRUE(sched.idle[0].empty());
  EXPECT_EQ(sched.idle[1], std::vector<std::uint32_t>{1});
  EXPECT_EQ(sched.idle[2], std::vector<std::uint32_t>{1});
  EXPECT_TRUE(sched.idle[3].empty());
  EXPECT_EQ(sched.total_idle_locations(), 2u);
}

TEST(Schedule, SingleMomentCircuitHasNoIdles) {
  Circuit c(2);
  c.h(0).h(1);
  EXPECT_EQ(schedule(c).total_idle_locations(), 0u);
}

TEST(Schedule, ClassicalDependencyOrdersConditionedOp) {
  Circuit c(2);
  const auto slot = c.measure_z(0);
  const auto f = c.cbit_func(slot);
  c.x_if(f, 1);
  const auto sched = schedule(c);
  // x_if must come strictly after the measurement's moment.
  EXPECT_GE(sched.depth(), 2u);
}

// Naive reference scheduler: a fresh used-flag vector per moment for
// the idle locations, and every classically controlled op waiting on every
// classical slot.  schedule() must reproduce it exactly.
Schedule reference_schedule(const Circuit& circuit) {
  const std::size_t nq = circuit.num_qubits();
  const std::size_t kNever = ~std::size_t{0};
  Schedule out;
  out.first_use.assign(nq, kNever);
  out.last_use.assign(nq, kNever);
  std::vector<std::size_t> qubit_free(nq, 0);
  std::vector<std::size_t> cbit_ready(circuit.num_cbits(), 0);
  const auto& ops = circuit.ops();
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    std::size_t slot = 0;
    for (int k = 0; k < arity(op.kind); ++k)
      slot = std::max(slot, qubit_free[op.q[k]]);
    if (is_classically_controlled(op.kind))
      for (std::size_t c = 0; c < cbit_ready.size(); ++c)
        slot = std::max(slot, cbit_ready[c]);
    if (out.moments.size() <= slot) out.moments.resize(slot + 1);
    out.moments[slot].push_back(i);
    for (int k = 0; k < arity(op.kind); ++k) {
      const std::uint32_t q = op.q[k];
      qubit_free[q] = slot + 1;
      if (out.first_use[q] == kNever) out.first_use[q] = slot;
      out.last_use[q] = slot;
    }
    if (op.kind == OpKind::MeasureZ) cbit_ready[op.carg] = slot + 1;
  }
  out.idle.resize(out.moments.size());
  for (std::size_t t = 0; t < out.moments.size(); ++t) {
    std::vector<bool> used(nq, false);
    for (std::size_t idx : out.moments[t])
      for (int k = 0; k < arity(ops[idx].kind); ++k) used[ops[idx].q[k]] = true;
    for (std::uint32_t q = 0; q < nq; ++q) {
      if (used[q] || out.first_use[q] == kNever) continue;
      if (t > out.first_use[q] && t < out.last_use[q]) out.idle[t].push_back(q);
    }
  }
  return out;
}

void expect_schedule_matches_reference(const Circuit& c,
                                       const std::string& what) {
  const Schedule got = schedule(c);
  const Schedule want = reference_schedule(c);
  EXPECT_EQ(got.moments, want.moments) << what;
  EXPECT_EQ(got.idle, want.idle) << what;
  EXPECT_EQ(got.first_use, want.first_use) << what;
  EXPECT_EQ(got.last_use, want.last_use) << what;
}

TEST(Schedule, MatchesReferenceOnEveryNamedGadgetCell) {
  for (const std::string gadget : {"ngate", "recovery", "recovery-measured"})
    for (const std::string code : {"steane", "rm15"})
      for (int k = 0; k <= 2; ++k) {
        analysis::GadgetSpec spec;
        spec.gadget = gadget;
        spec.scenario.code = code;
        spec.scenario.repetition_k = k;
        const analysis::BuiltGadget built =
            analysis::build_gadget_experiment(spec);
        const std::string what = gadget + "/" + code + "/k" + std::to_string(k);
        expect_schedule_matches_reference(built.ex.prep, what + " prep");
        expect_schedule_matches_reference(built.ex.gadget, what + " gadget");
      }
}

TEST(Schedule, MatchesReferenceWithManyMeasurementsAndClassicalControl) {
  // Random measured circuits with classically controlled ops, so the
  // running maximum of classical ready times is checked against the scan
  // over every slot.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Circuit c(6);
    for (int i = 0; i < 400; ++i) {
      const auto q = static_cast<std::uint32_t>(rng.below(6));
      const auto q2 = static_cast<std::uint32_t>((q + 1 + rng.below(5)) % 6);
      const bool have_slot = c.num_cbits() > 0;
      const auto slot =
          have_slot ? static_cast<std::uint32_t>(rng.below(c.num_cbits())) : 0;
      switch (rng.below(8)) {
        case 0: c.h(q); break;
        case 1: c.cnot(q, q2); break;
        case 2: c.idle(q); break;
        case 3: c.prep_z(q); break;
        case 4:
        case 5: c.measure_z(q); break;
        case 6:
          if (have_slot) c.x_if(c.cbit_func(slot), q);
          break;
        case 7:
          if (have_slot) c.cnot_if(c.cbit_func(slot), q, q2);
          break;
      }
    }
    ASSERT_GE(c.num_cbits(), 32u);
    expect_schedule_matches_reference(c, "seed " + std::to_string(seed));
  }
}

TEST(Execute, BellCircuitOnBothBackends) {
  Circuit c(2);
  c.h(0).cnot(0, 1);
  {
    SvBackend b(2, Rng(1));
    execute(c, b);
    EXPECT_NEAR(b.state().prob_one(0), 0.5, 1e-9);
  }
  {
    TabBackend b(2, Rng(1));
    execute(c, b);
    EXPECT_FALSE(b.tableau().is_deterministic_z(0));
    EXPECT_TRUE(b.tableau().state_is_stabilized_by(
        PauliString::from_string("XX")));
  }
}

TEST(Execute, SvBackendGateFusionMatchesEagerApplication) {
  // SvBackend fuses adjacent single-qubit gates into one 2x2 product before
  // touching the amplitude array.  A gate-dense circuit (runs of 1q gates
  // interrupted by 2q gates, measurements and Pauli injection) must produce
  // the same state as applying every gate eagerly, one at a time.
  Circuit c(3);
  c.h(0).t(0).s(0).h(0).x(1).z(1).s(1).sdg(2).tdg(2).y(2);
  c.cnot(0, 1);
  c.t(1).t(1).h(2);
  c.cz(1, 2);
  c.s(0).h(1).x(2).z(0);

  SvBackend fused(3, Rng(1));
  execute(c, fused);

  qsim::StateVector eager(3);
  for (const auto& op : c.ops()) {
    switch (op.kind) {
      case OpKind::H: eager.apply1(op.q[0], qsim::gate_h()); break;
      case OpKind::X: eager.apply1(op.q[0], qsim::gate_x()); break;
      case OpKind::Y: eager.apply1(op.q[0], qsim::gate_y()); break;
      case OpKind::Z: eager.apply1(op.q[0], qsim::gate_z()); break;
      case OpKind::S: eager.apply1(op.q[0], qsim::gate_s()); break;
      case OpKind::Sdg: eager.apply1(op.q[0], qsim::gate_sdg()); break;
      case OpKind::T: eager.apply1(op.q[0], qsim::gate_t()); break;
      case OpKind::Tdg: eager.apply1(op.q[0], qsim::gate_tdg()); break;
      case OpKind::CNOT: eager.apply_cnot(op.q[0], op.q[1]); break;
      case OpKind::CZ: eager.apply_cz(op.q[0], op.q[1]); break;
      default: FAIL() << "unexpected op";
    }
  }
  for (std::uint64_t i = 0; i < eager.dim(); ++i)
    EXPECT_NEAR(std::abs(fused.state().amplitude(i) - eager.amplitude(i)),
                0.0, 1e-10)
        << "basis " << i;
}

TEST(Execute, SvBackendFlushesBeforeMeasurementAndPauli) {
  // A pending fused product must be applied before a measurement or an
  // injected Pauli consumes the qubit — otherwise program order breaks.
  Circuit c(1);
  c.h(0).z(0).h(0);  // HZH = X: deterministic |1>
  const auto slot = c.measure_z(0);
  SvBackend b(1, Rng(7));
  const auto result = execute(c, b);
  EXPECT_TRUE(result.cbits[slot]);

  SvBackend b2(2, Rng(3));
  b2.x(0);  // pending
  b2.apply_pauli(PauliString::from_string("XI"));  // must see |1> on qubit 0
  EXPECT_NEAR(b2.state().prob_one(0), 0.0, 1e-12);
}

TEST(Execute, MeasurementFeedsClassicalControl) {
  // Quantum teleport-like feed-forward: X on qubit 1 iff qubit 0 measured 1.
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    Circuit c(2);
    c.h(0);
    const auto m = c.measure_z(0);
    const auto f = c.cbit_func(m);
    c.x_if(f, 1);
    TabBackend b(2, Rng(seed));
    const auto result = execute(c, b);
    // Qubit 1 now equals the measured bit.
    EXPECT_EQ(b.tableau().deterministic_z_value(1), result.cbits[0]);
  }
}

TEST(Execute, DerivedClassicalFunction) {
  // Majority of three measured bits controls an X.
  Circuit c(4);
  c.x(0).x(1);  // bits: 1,1,0 -> majority 1
  const auto m0 = c.measure_z(0);
  const auto m1 = c.measure_z(1);
  const auto m2 = c.measure_z(2);
  const auto maj = c.add_classical_func([=](const std::vector<bool>& bits) {
    return (bits[m0] && bits[m1]) || (bits[m0] && bits[m2]) ||
           (bits[m1] && bits[m2]);
  });
  c.x_if(maj, 3);
  TabBackend b(4, Rng(5));
  execute(c, b);
  EXPECT_EQ(b.tableau().expectation_z(3), -1.0);
}

TEST(Execute, CcxLowersOnClassicalControls) {
  Circuit c(3);
  c.x(0).x(1).ccx(0, 1, 2);
  TabBackend b(3, Rng(1));
  execute(c, b);
  EXPECT_EQ(b.tableau().expectation_z(2), -1.0);

  Circuit c2(3);
  c2.x(0).ccx(0, 1, 2);  // second control is 0
  TabBackend b2(3, Rng(1));
  execute(c2, b2);
  EXPECT_EQ(b2.tableau().expectation_z(2), 1.0);
}

TEST(Execute, CcxOnSuperposedControlsThrowsOnTableau) {
  Circuit c(3);
  c.h(0).h(1).ccx(0, 1, 2);
  TabBackend b(3, Rng(1));
  EXPECT_THROW(execute(c, b), ContractViolation);
  // The state vector handles it fine.
  SvBackend sb(3, Rng(1));
  EXPECT_NO_THROW(execute(c, sb));
  EXPECT_NEAR(sb.state().prob_one(2), 0.25, 1e-9);
}

TEST(Execute, CczLowersViaAnyClassicalParticipant) {
  Circuit c(3);
  c.h(0).h(1).x(2).ccz(0, 1, 2);  // qubit 2 classical |1> -> CZ(0,1)
  TabBackend b(3, Rng(1));
  execute(c, b);
  // After H H CZ the state is stabilized by XZ on (0,1).
  EXPECT_TRUE(b.tableau().state_is_stabilized_by(
      PauliString::from_string("XZI")));
}

TEST(Execute, TGateRejectedOnTableau) {
  Circuit c(1);
  c.t(0);
  TabBackend b(1, Rng(1));
  EXPECT_THROW(execute(c, b), ContractViolation);
}

TEST(Execute, PrepZResetsMidCircuit) {
  Circuit c(2);
  c.h(0).cnot(0, 1).prep_z(0).h(1);
  TabBackend b(2, Rng(3));
  execute(c, b);
  EXPECT_EQ(b.tableau().expectation_z(0), 1.0);
}

TEST(FaultSites, EnumerationMatchesExecutionOrder) {
  Circuit c(3);
  c.h(0).cnot(0, 1).prep_z(2).cnot(1, 2);
  const auto stat = enumerate_fault_sites(c);
  TabBackend b(3, Rng(1));
  SiteCollector collector;
  execute(c, b, &collector);
  ASSERT_EQ(stat.size(), collector.sites().size());
  for (std::size_t i = 0; i < stat.size(); ++i) {
    EXPECT_EQ(stat[i].ordinal, collector.sites()[i].ordinal);
    EXPECT_EQ(stat[i].kind, collector.sites()[i].kind);
    EXPECT_EQ(stat[i].qubits, collector.sites()[i].qubits);
    EXPECT_EQ(stat[i].moment, collector.sites()[i].moment);
  }
}

TEST(FaultSites, InputSitesIncludedWhenRequested) {
  Circuit c(3);
  c.h(0).cnot(0, 1);  // qubit 2 never used -> no input site for it
  ExecOptions opt;
  opt.include_input_sites = true;
  const auto sites = enumerate_fault_sites(c, opt);
  int inputs = 0;
  for (const auto& s : sites)
    if (s.kind == FaultSite::Kind::Input) ++inputs;
  EXPECT_EQ(inputs, 2);
}

TEST(FaultSites, MeasureSiteComesBeforeReadout) {
  // Planting X right before a measurement flips the recorded bit.
  Circuit c(1);
  const auto slot = c.measure_z(0);
  const auto sites = enumerate_fault_sites(c);
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites[0].kind, FaultSite::Kind::MeasureInput);

  PlantedInjector inj;
  inj.plant(sites[0].ordinal, PauliString::single(1, 0, Pauli::X));
  TabBackend b(1, Rng(1));
  const auto result = execute(c, b, &inj);
  EXPECT_TRUE(result.cbits[slot]);
}

TEST(FaultSites, PlantedFaultMustRespectSiteQubits) {
  Circuit c(2);
  c.h(0).h(1);
  const auto sites = enumerate_fault_sites(c);
  PlantedInjector inj;
  // Fault on qubit 1 planted at a site for qubit 0: contract violation.
  inj.plant(sites[0].ordinal, PauliString::single(2, 1, Pauli::X));
  TabBackend b(2, Rng(1));
  if (sites[0].qubits[0] == 0) {
    EXPECT_THROW(execute(c, b, &inj), ContractViolation);
  }
}

TEST(FaultSites, PlantedInjectorTracksUnvisitedPlants) {
  Circuit c(2);
  c.h(0).h(1);
  const auto sites = enumerate_fault_sites(c);
  PlantedInjector inj;
  inj.plant(sites[0].ordinal, PauliString::single(2, sites[0].qubits[0],
                                                  Pauli::X));
  const std::size_t bogus = sites.size() + 99;  // never enumerated
  inj.plant(bogus, PauliString::single(2, 0, Pauli::Z));
  EXPECT_FALSE(inj.all_planted_visited());
  TabBackend b(2, Rng(1));
  execute(c, b, &inj);
  EXPECT_FALSE(inj.all_planted_visited());
  ASSERT_EQ(inj.unvisited_ordinals().size(), 1u);
  EXPECT_EQ(inj.unvisited_ordinals()[0], bogus);
}

TEST(FaultSites, PlantedPairBothApplied) {
  Circuit c(2);
  c.h(0).h(0).h(1).h(1);  // H H = identity; planted X errors persist
  const auto sites = enumerate_fault_sites(c);
  ASSERT_GE(sites.size(), 4u);
  PlantedInjector inj;
  // After the second H on each qubit, plant an X.
  for (const auto& s : sites)
    if (s.moment == 1)
      inj.plant(s.ordinal, PauliString::single(2, s.qubits[0], Pauli::X));
  TabBackend b(2, Rng(1));
  execute(c, b, &inj);
  EXPECT_EQ(b.tableau().expectation_z(0), -1.0);
  EXPECT_EQ(b.tableau().expectation_z(1), -1.0);
}

TEST(Noise, ZeroProbabilityInjectsNothing) {
  Circuit c(2);
  for (int i = 0; i < 50; ++i) c.h(0).cnot(0, 1);
  noise::StochasticInjector inj(noise::NoiseModel::depolarizing(0.0), Rng(1));
  TabBackend b(2, Rng(2));
  execute(c, b, &inj);
  EXPECT_EQ(inj.errors_injected(), 0u);
}

TEST(Noise, InjectionRateTracksP) {
  Circuit c(1);
  for (int i = 0; i < 200; ++i) c.x(0);
  noise::StochasticInjector inj(noise::NoiseModel::depolarizing(0.1), Rng(4));
  TabBackend b(1, Rng(2));
  execute(c, b, &inj);
  EXPECT_NEAR(inj.errors_injected() / 200.0, 0.1, 0.06);
}

TEST(Noise, BitFlipChannelOnlyFlipsBits) {
  // On |0>, bit-flip noise can flip the value but never makes it random.
  Circuit c(1);
  for (int i = 0; i < 100; ++i) c.idle(0);
  c.x(0);
  noise::StochasticInjector inj(noise::NoiseModel::bit_flip(0.2), Rng(6));
  TabBackend b(1, Rng(2));
  execute(c, b, &inj);
  EXPECT_TRUE(b.tableau().is_deterministic_z(0));
}

TEST(Noise, SampleErrorCoversAllPaulisOnOneQubit) {
  Rng rng(8);
  bool saw[4] = {false, false, false, false};
  for (int i = 0; i < 200; ++i) {
    const auto e = noise::sample_error(noise::Channel::Depolarizing, {0}, 1, rng);
    saw[static_cast<int>(e.get(0))] = true;
  }
  EXPECT_FALSE(saw[0]);  // never identity
  EXPECT_TRUE(saw[1] && saw[2] && saw[3]);
}

TEST(Noise, TwoQubitDepolarizingCovers15) {
  Rng rng(9);
  std::set<std::string> seen;
  for (int i = 0; i < 2000; ++i)
    seen.insert(
        noise::sample_error(noise::Channel::Depolarizing, {0, 1}, 2, rng)
            .to_string());
  EXPECT_EQ(seen.size(), 15u);
}

TEST(CircuitAppend, RebasesClassicalSlots) {
  Circuit inner(2);
  const auto m = inner.measure_z(0);
  const auto f = inner.cbit_func(m);
  inner.x_if(f, 1);

  Circuit outer(2);
  outer.x(0);
  const auto m0 = outer.measure_z(0);  // slot 0 of outer
  (void)m0;
  outer.x(0);  // back to |0>... then measure |1> again for inner
  outer.x(0);
  outer.append(inner);

  TabBackend b(2, Rng(3));
  const auto result = execute(outer, b);
  ASSERT_EQ(result.cbits.size(), 2u);
  EXPECT_TRUE(result.cbits[0]);
  // Inner circuit measured |1> (x applied twice then once more = |1>).
  EXPECT_TRUE(result.cbits[1]);
  EXPECT_EQ(b.tableau().expectation_z(1), -1.0);
}

}  // namespace
}  // namespace eqc::circuit
