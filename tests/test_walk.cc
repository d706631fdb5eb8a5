// Walk-order equivalence: every layer that names a fault site by its
// ordinal yields the reference walk's site stream (tests/reference_walk.h)
// — the executor's injector visits, enumerate_fault_sites, the frame
// compiler's site table and support propagation's ordinals — on every
// named gadget cell and on random circuits with measurements,
// re-preparations and classical control.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiments.h"
#include "analysis/support_prop.h"
#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "circuit/walk.h"
#include "common/rng.h"
#include "frame/frames.h"
#include "pauli/pauli_string.h"
#include "reference_walk.h"
#include "testing/circuit_edit.h"
#include "testing/circuit_gen.h"

namespace eqc {
namespace {

using circuit::Circuit;
using circuit::FaultSite;
using circuit::OpKind;
using circuit::TabBackend;
using circuit::reference::Step;
using pauli::Pauli;
using pauli::PauliString;

struct Case {
  std::string what;
  std::size_t num_qubits;
  Circuit prep;
  Circuit gadget;
  std::uint64_t seed;
  bool frames;  ///< every planted fault is frame-simulable
};

std::string describe(const FaultSite& s) {
  std::string out = "#" + std::to_string(s.ordinal) + " kind " +
                    std::to_string(static_cast<int>(s.kind)) + " q";
  for (const std::uint32_t q : s.qubits()) out += " " + std::to_string(q);
  return out;
}

void expect_same_stream(const std::vector<FaultSite>& got,
                        const std::vector<FaultSite>& want,
                        const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_EQ(describe(got[i]), describe(want[i])) << what << " site " << i;
}

/// Up to ~17 site ordinals: a stride over all sites, the last site and the
/// first measurement-input sites.
std::vector<std::size_t> sample_sites(const std::vector<FaultSite>& sites) {
  std::vector<std::size_t> out;
  const std::size_t stride = std::max<std::size_t>(1, sites.size() / 11);
  for (std::size_t s = 0; s < sites.size(); s += stride) out.push_back(s);
  if (!sites.empty()) out.push_back(sites.size() - 1);
  std::size_t measured = 0;
  for (const FaultSite& s : sites)
    if (s.kind == FaultSite::Kind::MeasureInput && measured++ < 4)
      out.push_back(s.ordinal);
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

PauliString y_on(const FaultSite& site, std::size_t n) {
  PauliString p(n);
  for (const std::uint32_t q : site.qubits()) p.set(q, Pauli::Y);
  return p;
}

/// Plants X at one measurement-input site and records whether the measured
/// qubit's Z value was already determined when the site was visited.
class ReadoutProbe final : public circuit::FaultInjector {
 public:
  ReadoutProbe(std::size_t ordinal, std::size_t n) : ordinal_(ordinal), n_(n) {}
  void visit(const FaultSite& site, circuit::Backend& backend) override {
    if (site.ordinal != ordinal_) return;
    auto& tab = static_cast<TabBackend&>(backend);
    deterministic_ = tab.tableau().is_deterministic_z(site.q[0]);
    backend.apply_pauli(PauliString::single(n_, site.q[0], Pauli::X));
  }
  bool deterministic() const { return deterministic_; }

 private:
  std::size_t ordinal_;
  std::size_t n_;
  bool deterministic_ = false;
};

/// The op a walk step applies, on `out`, with classical control dropped:
/// support propagation treats a controlled op like its unconditional form.
void append_unconditioned(Circuit& out, const circuit::Op& op) {
  switch (op.kind) {
    case OpKind::XIfC: out.x(op.q[0]); break;
    case OpKind::ZIfC: out.z(op.q[0]); break;
    case OpKind::SIfC: out.s(op.q[0]); break;
    case OpKind::SdgIfC: out.sdg(op.q[0]); break;
    case OpKind::CNOTIfC: out.cnot(op.q[0], op.q[1]); break;
    case OpKind::CZIfC: out.cz(op.q[0], op.q[1]); break;
    default: testing::append_op(out, op); break;
  }
}

/// Support after a worst-case fault at the site of step `pos`, computed
/// without the circuit's ordinals: a carrier op on the site's qubits (which
/// moves no flags) carries the fault as site 0 of a circuit holding the
/// ops that follow the site in walk order.  Ops before the site act on
/// clean flags and change nothing.
analysis::SupportState expected_support(const Circuit& c,
                                        const std::vector<Step>& steps,
                                        std::size_t pos) {
  const FaultSite& site = steps[pos].site;
  Circuit tail(c.num_qubits());
  if (site.arity == 1) tail.idle(site.q[0]);
  if (site.arity == 2) tail.cz(site.q[0], site.q[1]);
  if (site.arity == 3) tail.ccz(site.q[0], site.q[1], site.q[2]);
  for (std::size_t i = pos + 1; i < steps.size(); ++i)
    if (!steps[i].is_site)
      append_unconditioned(tail, c.ops()[steps[i].op_index]);
  return analysis::propagate_supports(
      tail, {analysis::SupportFault{0, true, true}},
      std::vector<bool>(c.num_qubits(), false));
}

/// Counts of the position checks that actually ran, so a suite in which
/// none applies fails instead of passing vacuously.
struct Coverage {
  std::size_t determined_readouts = 0;
  std::size_t frame_lanes = 0;
  std::size_t support_sites = 0;
};

void expect_walk_matches_reference(const Case& tc, Coverage& cov) {
  const std::size_t n = tc.num_qubits;
  const std::vector<Step> steps = circuit::reference::walk_steps(tc.gadget);
  const std::vector<FaultSite> want = circuit::reference::sites(tc.gadget);
  ASSERT_FALSE(want.empty()) << tc.what;

  // enumerate_fault_sites, with and without Input sites.
  expect_same_stream(circuit::enumerate_fault_sites(tc.gadget), want,
                     tc.what + " enumerate");
  const circuit::ExecOptions inputs{.include_input_sites = true};
  const std::vector<FaultSite> want_inputs =
      circuit::reference::sites(tc.gadget, inputs);
  expect_same_stream(circuit::enumerate_fault_sites(tc.gadget, inputs),
                     want_inputs, tc.what + " enumerate+inputs");

  // The injector's visits in execute().
  const auto run = [&](circuit::FaultInjector* inj,
                       const circuit::ExecOptions& opt = {}) {
    TabBackend backend(n, Rng(tc.seed));
    circuit::execute(tc.prep, backend);
    return circuit::execute(tc.gadget, backend, inj, opt).cbits;
  };
  {
    circuit::SiteCollector collector;
    run(&collector);
    expect_same_stream(collector.sites(), want, tc.what + " execute");
    circuit::SiteCollector with_inputs;
    run(&with_inputs, inputs);
    expect_same_stream(with_inputs.sites(), want_inputs,
                       tc.what + " execute+inputs");
  }

  // A measurement-input site is visited before its readout: X planted
  // there flips the recorded bit whenever the qubit's value was determined.
  const std::vector<bool> clean = run(nullptr);
  std::size_t readouts = 0;
  for (const Step& step : steps) {
    if (!step.is_site || step.site.kind != FaultSite::Kind::MeasureInput)
      continue;
    if (readouts++ == 4) break;
    ReadoutProbe probe(step.site.ordinal, n);
    const std::vector<bool> flipped = run(&probe);
    if (!probe.deterministic()) continue;
    ++cov.determined_readouts;
    const std::uint32_t slot = tc.gadget.ops()[step.op_index].carg;
    EXPECT_NE(flipped[slot], clean[slot])
        << tc.what << " readout at " << describe(step.site);
  }

  const std::vector<std::size_t> picked = sample_sites(want);

  // Support propagation strikes site s where the reference walk puts it.
  std::vector<std::size_t> step_of(want.size());
  for (std::size_t i = 0; i < steps.size(); ++i)
    if (steps[i].is_site) step_of[steps[i].site.ordinal] = i;
  for (const std::size_t s : picked) {
    const analysis::SupportState got = analysis::propagate_supports(
        tc.gadget, {analysis::SupportFault{s, true, true}},
        std::vector<bool>(n, false));
    const analysis::SupportState exp =
        expected_support(tc.gadget, steps, step_of[s]);
    EXPECT_EQ(got.x, exp.x) << tc.what << " support " << describe(want[s]);
    EXPECT_EQ(got.z, exp.z) << tc.what << " support " << describe(want[s]);
    ++cov.support_sites;
  }

  if (!tc.frames) return;
  // The frame site table: its size, and a Y on every qubit of site s
  // planted by ordinal lands where the per-trial executor puts it (same
  // measurement record, same state F |ref>).
  const frame::FrameProgram prog(n, tc.prep, tc.gadget, tc.seed);
  ASSERT_EQ(prog.num_sites(), want.size()) << tc.what;
  std::vector<std::vector<frame::PlantedFault>> lanes;
  for (const std::size_t s : picked)
    lanes.push_back({frame::PlantedFault{s, y_on(want[s], n)}});
  ASSERT_LE(lanes.size(), std::size_t{frame::FrameBatch::kLanes});
  frame::FrameBatch batch(prog);
  batch.run_planted(lanes);
  for (unsigned l = 0; l < lanes.size(); ++l) {
    const std::string where =
        tc.what + " frame lane at " + describe(want[picked[l]]);
    TabBackend backend(n, Rng(tc.seed));
    circuit::execute(tc.prep, backend);
    circuit::PlantedInjector injector;
    injector.plant(lanes[l][0].ordinal, lanes[l][0].error);
    const auto r = circuit::execute(tc.gadget, backend, &injector);
    EXPECT_EQ(batch.lane_cbits(l), r.cbits) << where;
    const PauliString frame_l = batch.lane_frame(l);
    const stab::Tableau& ref = prog.reference_tableau();
    for (std::size_t i = 0; i < ref.num_qubits(); ++i) {
      PauliString g = ref.stabilizer(i);
      if (!g.commutes_with(frame_l)) g.set_phase(g.phase() + 2);
      EXPECT_TRUE(backend.tableau().state_is_stabilized_by(g))
          << where << " stabilizer " << i;
    }
    ++cov.frame_lanes;
  }
}

TEST(FaultWalk, EveryNamedCellMatchesTheReferenceWalk) {
  Coverage cov;
  for (const std::string gadget : {"ngate", "recovery", "recovery-measured"})
    for (const std::string code : {"steane", "rm15"})
      for (int k = 0; k <= 2; ++k) {
        analysis::GadgetSpec spec;
        spec.gadget = gadget;
        spec.scenario.code = code;
        spec.scenario.repetition_k = k;
        const analysis::BuiltGadget built =
            analysis::build_gadget_experiment(spec);
        const Case tc{gadget + "/" + code + "/k" + std::to_string(k),
                      built.ex.num_qubits, built.ex.prep, built.ex.gadget,
                      built.ex.seed, true};
        expect_walk_matches_reference(tc, cov);
      }
  EXPECT_GT(cov.determined_readouts, 0u);
  EXPECT_GT(cov.frame_lanes, 0u);
  EXPECT_GT(cov.support_sites, 0u);
}

// Generator circuits with measurements and re-preparations, plus an X or Z
// conditioned on each measured bit half of the time.  The CliffordCC set
// adds classical-ancilla-controlled CCX/CCZ/CS; a fault on such a control
// can make a lane deviate in a way the frame engine refuses, so those
// circuits skip the frame check.
Circuit with_feedback(const Circuit& c, Rng& rng) {
  Circuit out(c.num_qubits());
  for (const circuit::Op& op : c.ops()) {
    testing::append_op(out, op);
    if (op.kind != OpKind::MeasureZ || rng.below(2) == 0) continue;
    const std::uint32_t f = out.cbit_func(out.num_cbits() - 1);
    const auto q = static_cast<std::uint32_t>(rng.below(c.num_qubits()));
    if (rng.below(2) == 0)
      out.x_if(f, q);
    else
      out.z_if(f, q);
  }
  return out;
}

TEST(FaultWalk, RandomMeasuredCircuitsMatchTheReferenceWalk) {
  Coverage cov;
  for (const auto gate_set :
       {testing::GateSet::Frames, testing::GateSet::CliffordCC}) {
    testing::CircuitGenOptions opt;
    opt.gate_set = gate_set;
    opt.qubits = 6;
    opt.depth = 80;
    opt.measure_prob = 0.15;
    opt.prep_prob = 0.1;
    const testing::CircuitGen gen(opt);
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      Rng rng(seed);
      const Circuit c = with_feedback(gen.generate(rng), rng);
      const Case tc{std::string(testing::to_string(gate_set)) + " seed " +
                        std::to_string(seed),
                    c.num_qubits(), Circuit(c.num_qubits()), c, seed,
                    gate_set == testing::GateSet::Frames};
      expect_walk_matches_reference(tc, cov);
    }
  }
  EXPECT_GT(cov.determined_readouts, 0u);
  EXPECT_GT(cov.frame_lanes, 0u);
  EXPECT_GT(cov.support_sites, 0u);
}

}  // namespace
}  // namespace eqc
