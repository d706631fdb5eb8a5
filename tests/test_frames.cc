// Frame-vs-trial bit-exactness suite.
//
// The frame engine's contract is not statistical agreement but BYTE
// IDENTITY: for every (gadget, code, repetition, seed) configuration the
// 64-lane frame driver must fold exactly the same FailureCounter — and
// therefore exactly the same report JSON — as the per-trial TabBackend
// driver, for any jobs value and across any checkpoint/resume split.
// These tests pin that contract, cross-check the word-level failure
// oracle against the per-lane generic one, verify the packed frame
// planes against PauliString conjugation gate by gate, and prove the
// differential layer can actually see a planted propagation bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/experiments.h"
#include "analysis/fault_enum.h"
#include "analysis/frame_oracle.h"
#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "codes/css_code.h"
#include "common/rng.h"
#include "common/stats.h"
#include "frame/driver.h"
#include "frame/frames.h"
#include "ftqc/ft_tgate.h"
#include "ftqc/ft_toffoli.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"
#include "pauli/pauli_string.h"

namespace eqc {
namespace {

using analysis::BuiltGadget;
using analysis::FaultExperiment;
using analysis::GadgetSpec;
using circuit::Circuit;
using circuit::TabBackend;
using pauli::Pauli;
using pauli::PauliString;

// The canonical per-trial Monte-Carlo lambda, spelled out (the stream
// layout analysis::run_noisy encodes) — the baseline every frame run must
// reproduce bit for bit.
FailureCounter per_trial_counter(const FaultExperiment& ex,
                                 const noise::NoiseModel& model,
                                 std::uint64_t trials, std::uint64_t seed,
                                 unsigned jobs = 1) {
  return noise::run_trials_indexed(
      trials, seed,
      [&ex, model](std::uint64_t, Rng& rng) {
        TabBackend backend(ex.num_qubits, rng.split());
        circuit::execute(ex.prep, backend);
        noise::StochasticInjector injector(model, rng.split());
        const auto r = circuit::execute(ex.gadget, backend, &injector);
        return ex.failed(backend, r);
      },
      jobs);
}

FailureCounter frame_counter(const std::string& gadget,
                             const BuiltGadget& built,
                             const noise::NoiseModel& model,
                             std::uint64_t trials, std::uint64_t seed,
                             unsigned jobs = 1) {
  const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
  const frame::BatchOracle oracle =
      analysis::make_frame_oracle(gadget, built, prog);
  return frame::run_trials(prog, model, trials, seed, oracle, jobs);
}

void expect_byte_identical(const FailureCounter& want,
                           const FailureCounter& got,
                           const std::string& label) {
  EXPECT_EQ(want.trials, got.trials) << label;
  EXPECT_EQ(want.failures, got.failures) << label;
  EXPECT_EQ(want.stopped_early, got.stopped_early) << label;
  EXPECT_EQ(want.to_json_value().dump(), got.to_json_value().dump()) << label;
}

// --- the named-gadget equivalence grid -------------------------------------

// Every named gadget x {steane, rm15} x k in {1, 2}: the frame driver's
// counter and its JSON serialization are byte-identical to the per-trial
// driver's, on a pinned seed, under the paper noise model.
TEST(FrameEquiv, NamedGadgetGridBitExact) {
  const std::uint64_t kTrials = 192;
  std::uint64_t seed = 40;
  for (const std::string gadget : {"ngate", "recovery", "recovery-measured"}) {
    for (const std::string code : {"steane", "rm15"}) {
      for (int k : {1, 2}) {
        GadgetSpec spec;
        spec.gadget = gadget;
        spec.scenario.code = code;
        spec.scenario.repetition_k = k;
        spec.seed = ++seed;
        const BuiltGadget built = analysis::build_gadget_experiment(spec);
        const auto model =
            analysis::scenario_noise_model(spec.scenario, 2e-3);
        const std::string label = gadget + "/" + code + "/k=" +
                                  std::to_string(k);
        const auto trials =
            per_trial_counter(built.ex, model, kTrials, spec.seed, 4);
        const auto frames =
            frame_counter(gadget, built, model, kTrials, spec.seed, 4);
        expect_byte_identical(trials, frames, label);
      }
    }
  }
}

// Gap sampling thins candidates drawn at p_max per site kind: the frame
// driver's up-front walk and the per-trial injector's online countdown
// must consume the identical stream under a model whose p differs by
// kind, and at the rates where the sampler draws nothing (p = 0, p = 1)
// or almost never hits (p = 1e-6).
TEST(FrameEquiv, ThinnedModelAndEdgeRatesBitExact) {
  std::uint64_t seed = 70;
  for (const std::string gadget : {"ngate", "recovery"}) {
    GadgetSpec spec;
    spec.gadget = gadget;
    spec.scenario.code = "steane";
    spec.scenario.repetition_k = 1;
    spec.seed = ++seed;
    const BuiltGadget built = analysis::build_gadget_experiment(spec);
    for (const bool thinned : {false, true}) {
      for (const double p : {0.0, 1e-6, 2e-3, 1.0}) {
        // At p = 1 every one of recovery's ~36 k sites faults, which makes
        // the per-trial reference too slow for this suite; ngate covers it.
        if (gadget == "recovery" && p == 1.0) continue;
        noise::NoiseModel model = noise::NoiseModel::paper_model(p);
        if (thinned) {
          model.idle_scale = 0.25;
          model.measure_scale = 0.0;
        }
        const std::string label = gadget + (thinned ? " thinned" : "") +
                                   " p=" + std::to_string(p);
        // 70 trials: one full 64-lane tile and a partial one.
        expect_byte_identical(
            per_trial_counter(built.ex, model, 70, spec.seed, 4),
            frame_counter(gadget, built, model, 70, spec.seed, 4), label);
      }
    }
  }
}

// The backend RNG stream contract: a lane's post-run RNG state equals the
// per-trial backend's, so predicates that keep drawing from it (and
// predicates reading the measurement record) still agree bit for bit.
// The circuit mixes random and deterministic measurements and resets —
// every case of the frame interpreter's draw-accounting.
TEST(FrameEquiv, BackendRngStreamBitExact) {
  FaultExperiment ex;
  ex.num_qubits = 4;
  ex.seed = 11;
  Circuit prep(4);
  ex.prep = prep;
  Circuit g(4);
  g.h(1);
  g.measure_z(1);        // random: one bernoulli draw
  g.cnot(1, 2);
  g.measure_z(2);        // deterministic: no draw
  g.prep_z(1);           // deterministic reset (q1 collapsed)
  g.prep_x(3);           // deterministic reset + H
  g.h(3);
  g.measure_z(3);        // deterministic again after H H = I
  ex.gadget = g;
  ex.failed = [](TabBackend& b, const circuit::ExecResult& r) {
    // Draw from the post-run backend stream — only matches when the frame
    // engine consumed exactly the same number of draws per lane.
    const bool coin = b.rng().bernoulli(0.5);
    return coin ^ r.cbits[0] ^ r.cbits[1];
  };

  const auto model = noise::NoiseModel::paper_model(0.05);
  const frame::FrameProgram prog = analysis::make_frame_program(ex);
  const auto oracle = analysis::make_generic_frame_oracle(ex, prog);
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    // 500 trials: the last tile is partial.
    for (const std::uint64_t trials : {512u, 500u}) {
      const auto want = per_trial_counter(ex, model, trials, seed);
      const auto got = frame::run_trials(prog, model, trials, seed, oracle);
      expect_byte_identical(want, got, "rng-stream seed=" +
                                           std::to_string(seed) + " trials=" +
                                           std::to_string(trials));
    }
  }

  // The N gate makes no random measurement, so a lane's backend stream is
  // first seeded when lane_backend_rng() reads it.  Every lane of a full
  // and a partial tile still holds the per-trial backend's post-run state.
  GadgetSpec spec;  // ngate / steane / k = 1
  spec.seed = 19;
  const BuiltGadget built = analysis::build_gadget_experiment(spec);
  const frame::FrameProgram ngate = analysis::make_frame_program(built.ex);
  const auto ng_model = noise::NoiseModel::paper_model(1e-2);
  frame::FrameBatch batch(ngate);
  for (const unsigned count : {64u, 23u}) {
    const std::uint64_t first = count == 64 ? 0 : 64;
    batch.run_stochastic(ng_model, 5, first, count);
    for (unsigned l = 0; l < count; ++l) {
      Rng trial_rng(derive_stream_seed(5, first + l));
      TabBackend backend(built.ex.num_qubits, trial_rng.split());
      circuit::execute(built.ex.prep, backend);
      noise::StochasticInjector injector(ng_model, trial_rng.split());
      const auto r = circuit::execute(built.ex.gadget, backend, &injector);
      Rng lane_rng = batch.lane_backend_rng(l);
      EXPECT_EQ(lane_rng(), backend.rng()()) << "count " << count
                                             << " lane " << l;
      EXPECT_EQ(r.cbits, batch.lane_cbits(l)) << "count " << count
                                              << " lane " << l;
    }
  }
  // Through the driver too: a predicate drawing from the post-run stream.
  FaultExperiment coin_ex = built.ex;
  coin_ex.failed = [failed = built.ex.failed](TabBackend& b,
                                              const circuit::ExecResult& r) {
    return b.rng().bernoulli(0.5) ^ failed(b, r);
  };
  const auto coin = analysis::make_generic_frame_oracle(coin_ex, ngate);
  expect_byte_identical(per_trial_counter(coin_ex, ng_model, 100, 8),
                        frame::run_trials(ngate, ng_model, 100, 8, coin),
                        "ngate rng-stream");
}

// --- T gate and Toffoli -----------------------------------------------------

// T-gadget experiment on tableau-friendly inputs: data |1>_L, special
// |0>_L (the magic-state prep needs a physical T and is exercised on the
// state-vector backend elsewhere; the gadget's classically-controlled
// CSdg layer is the frame-interesting part).  Steane only: the gadget
// requires transversal S.
FaultExperiment build_tgate_experiment(int repetitions, std::uint64_t seed,
                                       bool uncorrected) {
  ftqc::Layout layout;
  const auto regs =
      ftqc::allocate_tgate_registers(layout, codes::steane_code(),
                                     repetitions);
  FaultExperiment ex;
  ex.num_qubits = layout.total();
  ex.seed = seed;
  Circuit prep(layout.total());
  codes::steane_code().append_encode_zero(prep, regs.data);
  codes::steane_code().append_logical_x(prep, regs.data);  // |1>_L
  codes::steane_code().append_encode_zero(prep, regs.special);
  ex.prep = prep;
  Circuit g(layout.total());
  ftqc::NGateOptions opt;
  opt.repetitions = repetitions;
  ftqc::append_ft_t_gadget(g, codes::steane_code(), regs, opt);
  ex.gadget = g;
  const codes::CodeBlock data = regs.data;
  if (uncorrected) {
    // No correction round: any surviving error — including the pure-Z
    // errors the perfect-correct predicate would erase — reads as a
    // failure, which keeps a dephasing-only run non-vacuous.
    ex.failed = [data](TabBackend& b, const circuit::ExecResult&) {
      return !codes::steane_code().block_in_codespace(b.tableau(), data) ||
             codes::steane_code().logical_z_expectation(b.tableau(), data) !=
                 -1.0;
    };
  } else {
    ex.failed = [data](TabBackend& b, const circuit::ExecResult&) {
      Rng r(3);
      codes::steane_code().perfect_correct(b.tableau(), data, r);
      return codes::steane_code().logical_z_expectation(b.tableau(), data) !=
             -1.0;
    };
  }
  return ex;
}

// Planted single faults through the T gadget: every sampled fault either
// reproduces run_with_faults' verdict exactly, or throws FrameUnsupported
// (an X-type deviation on a classically-controlled S whose target is not
// classical — the documented limit of the frame model, handled by the
// campaign engine's per-item fallback).
TEST(FrameEquiv, TGadgetPlantedMatchesPerTrial) {
  for (int k : {1, 2}) {
    const FaultExperiment ex = build_tgate_experiment(2 * k + 1, 5, false);
    const frame::FrameProgram prog = analysis::make_frame_program(ex);
    const auto oracle = analysis::make_generic_frame_oracle(ex, prog);
    const auto faults = analysis::enumerate_single_faults(ex);
    ASSERT_FALSE(faults.empty());
    const std::size_t stride = faults.size() / 120 + 1;
    std::size_t compared = 0, unsupported = 0;
    for (std::size_t i = 0; i < faults.size(); i += stride) {
      const auto& f = faults[i];
      frame::FrameBatch batch(prog);
      try {
        batch.run_planted({{frame::PlantedFault{f.ordinal, f.error}}});
      } catch (const frame::FrameUnsupported&) {
        ++unsupported;
        continue;
      }
      const bool frame_verdict = (oracle(batch) & 1) != 0;
      EXPECT_EQ(frame_verdict, analysis::run_with_faults(ex, {f}))
          << "k=" << k << " ordinal=" << f.ordinal << " "
          << f.error.to_string();
      ++compared;
    }
    // A healthy majority of faults is word-comparable; the rest exercise
    // the documented FrameUnsupported fallback (X-type deviations on the
    // classically-controlled CSdg layer with a non-classical data target).
    EXPECT_GT(compared, 60u) << "k=" << k;
    EXPECT_GT(unsupported, 0u) << "k=" << k;
  }
}

// Stochastic T gadget under pure dephasing: Z-type frames never trigger a
// CSdg deviation (no Hadamard in the gadget converts them to X), so the
// frame engine runs the full trial budget — and must match the per-trial
// driver with an uncorrected-codespace predicate that makes Z errors
// visible.
TEST(FrameEquiv, TGadgetStochasticPhaseFlipBitExact) {
  for (int k : {1, 2}) {
    const FaultExperiment ex =
        build_tgate_experiment(2 * k + 1, 6 + static_cast<std::uint64_t>(k),
                               true);
    const auto model = noise::NoiseModel::phase_flip(3e-3);
    const frame::FrameProgram prog = analysis::make_frame_program(ex);
    const auto oracle = analysis::make_generic_frame_oracle(ex, prog);
    const auto want = per_trial_counter(ex, model, 192, 21);
    const auto got = frame::run_trials(prog, model, 192, 21, oracle, 2);
    expect_byte_identical(want, got, "tgate-phaseflip k=" +
                                         std::to_string(k));
    EXPECT_GT(got.failures, 0u) << "k=" << k
                                << ": test should not be vacuous";
  }
}

// Coded-Toffoli experiment on tableau-friendly inputs: z = |+>_L and
// c = |+>_L, so CNOT_L(z -> c) does not entangle them, H_L z lands in
// |0>_L, the deferred measurement of z is deterministic, and every
// CCZ/CCX lowering has a classical pivot.  The predicate compares the
// corrected logical readout of all three output blocks against the
// fault-free reference values captured at build time.
FaultExperiment build_toffoli_experiment(int repetitions,
                                         std::uint64_t seed) {
  ftqc::Layout layout;
  const auto regs = ftqc::allocate_coded_toffoli_registers(
      layout, codes::steane_code(), repetitions);
  FaultExperiment ex;
  ex.num_qubits = layout.total();
  ex.seed = seed;
  Circuit prep(layout.total());
  for (const codes::CodeBlock* b : {&regs.a, &regs.b, &regs.x})
    codes::steane_code().append_encode_zero(prep, *b);
  codes::steane_code().append_encode_plus(prep, regs.c);
  codes::steane_code().append_encode_zero(prep, regs.y);
  codes::steane_code().append_logical_x(prep, regs.y);  // y = |1>_L
  codes::steane_code().append_encode_plus(prep, regs.z);
  ex.prep = prep;
  Circuit g(layout.total());
  ftqc::NGateOptions opt;
  opt.repetitions = repetitions;
  ftqc::append_coded_toffoli_gadget(g, codes::steane_code(), regs, opt);
  ex.gadget = g;

  // Fault-free reference readout of the output blocks.
  const std::vector<codes::CodeBlock> outs = {regs.a, regs.b, regs.c};
  std::vector<double> want;
  {
    TabBackend b(layout.total(), Rng(seed));
    circuit::execute(ex.prep, b);
    circuit::execute(ex.gadget, b);
    Rng pr(3);
    for (const auto& blk : outs) {
      codes::steane_code().perfect_correct(b.tableau(), blk, pr);
      EXPECT_TRUE(codes::steane_code().block_in_codespace(b.tableau(), blk));
      want.push_back(
          codes::steane_code().logical_z_expectation(b.tableau(), blk));
    }
  }
  ex.failed = [outs, want](TabBackend& b, const circuit::ExecResult&) {
    Rng pr(3);
    for (std::size_t i = 0; i < outs.size(); ++i) {
      codes::steane_code().perfect_correct(b.tableau(), outs[i], pr);
      if (!codes::steane_code().block_in_codespace(b.tableau(), outs[i]))
        return true;
      if (codes::steane_code().logical_z_expectation(b.tableau(), outs[i]) !=
          want[i])
        return true;
    }
    return false;
  };
  return ex;
}

TEST(FrameEquiv, ToffoliPlantedMatchesPerTrial) {
  const FaultExperiment ex = build_toffoli_experiment(3, 9);
  const frame::FrameProgram prog = analysis::make_frame_program(ex);
  const auto oracle = analysis::make_generic_frame_oracle(ex, prog);
  const auto faults = analysis::enumerate_single_faults(ex);
  ASSERT_FALSE(faults.empty());
  const std::size_t stride = faults.size() / 90 + 1;
  std::size_t compared = 0, unsupported = 0;
  for (std::size_t i = 0; i < faults.size(); i += stride) {
    const auto& f = faults[i];
    frame::FrameBatch batch(prog);
    try {
      batch.run_planted({{frame::PlantedFault{f.ordinal, f.error}}});
    } catch (const frame::FrameUnsupported&) {
      ++unsupported;
      continue;
    }
    const bool frame_verdict = (oracle(batch) & 1) != 0;
    EXPECT_EQ(frame_verdict, analysis::run_with_faults(ex, {f}))
        << "ordinal=" << f.ordinal << " " << f.error.to_string();
    ++compared;
  }
  EXPECT_GT(compared, 50u);
}

// --- word oracle vs generic oracle -----------------------------------------

// On identical executed batches the closed-form word oracle must produce
// exactly the per-lane generic oracle's failure word (the generic one
// replays ex.failed on a frame-adjusted tableau copy, so it is exact by
// construction).
// p = 1e-4 leaves most lanes fault-free (the oracle's reference-verdict
// path), 1e-2 mixes clean and faulty lanes, 0.3 makes every lane faulty.
TEST(FrameOracle, WordMatchesGeneric) {
  std::uint64_t seed = 70;
  for (const std::string gadget : {"ngate", "recovery"}) {
    for (const std::string code : {"steane", "rm15"}) {
      GadgetSpec spec;
      spec.gadget = gadget;
      spec.scenario.code = code;
      spec.seed = ++seed;
      const BuiltGadget built = analysis::build_gadget_experiment(spec);
      const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
      const auto word = analysis::make_frame_oracle(gadget, built, prog);
      const auto generic =
          analysis::make_generic_frame_oracle(built.ex, prog);
      for (const double p : {1e-4, 1e-2, 0.3}) {
        const auto model = analysis::scenario_noise_model(spec.scenario, p);
        const std::string label =
            gadget + "/" + code + " p=" + std::to_string(p);
        frame::FrameBatch batch(prog);
        for (unsigned batch_i = 0; batch_i < 4; ++batch_i) {
          batch.run_stochastic(model, spec.seed, batch_i * 64, 64);
          EXPECT_EQ(word(batch), generic(batch))
              << label << " batch " << batch_i;
        }
        // Partially filled batches, down to one lane: bits above count()
        // must agree after the active-mask, and unused lanes must not leak
        // into the verdict.
        for (const unsigned count : {17u, 1u}) {
          batch.run_stochastic(model, spec.seed, 1000, count);
          EXPECT_EQ(word(batch) & batch.active_mask(),
                    generic(batch) & batch.active_mask())
              << label << " count " << count;
        }
      }
    }
  }
}

// --- packed-frame property tests -------------------------------------------

// Pack/unpack round trip: planted per-lane Paulis land on exactly the
// right (fx, fz) bit positions, and lane_frame() reads them back.
TEST(FrameProp, PackUnpackRoundTrip) {
  const std::size_t n = 6;
  Circuit prep(n);
  Circuit g(n);
  for (std::uint32_t q = 0; q < n; ++q) g.x(q);  // one site per qubit
  FaultExperiment ex;
  ex.num_qubits = n;
  ex.prep = prep;
  ex.gadget = g;
  ex.seed = 1;
  const frame::FrameProgram prog = analysis::make_frame_program(ex);
  ASSERT_EQ(prog.num_sites(), n);

  Rng rng(1234);
  std::vector<PauliString> lanes_want;
  std::vector<std::vector<frame::PlantedFault>> lanes;
  for (unsigned l = 0; l < 64; ++l) {
    const PauliString p = PauliString::random(n, rng);
    std::vector<frame::PlantedFault> plant;
    for (std::size_t q = 0; q < n; ++q)
      if (p.get(q) != Pauli::I)
        plant.push_back(
            frame::PlantedFault{q, PauliString::single(n, q, p.get(q))});
    lanes_want.push_back(p);
    lanes.push_back(std::move(plant));
  }
  frame::FrameBatch batch(prog);
  batch.run_planted(lanes);
  EXPECT_EQ(batch.active_mask(), ~std::uint64_t{0});
  for (unsigned l = 0; l < 64; ++l) {
    const PauliString got = batch.lane_frame(l);
    for (std::size_t q = 0; q < n; ++q) {
      EXPECT_EQ(got.x_bit(q), lanes_want[l].x_bit(q)) << "lane " << l;
      EXPECT_EQ(got.z_bit(q), lanes_want[l].z_bit(q)) << "lane " << l;
      EXPECT_EQ((batch.fx(q) >> l) & 1, lanes_want[l].x_bit(q) ? 1u : 0u);
      EXPECT_EQ((batch.fz(q) >> l) & 1, lanes_want[l].z_bit(q) ? 1u : 0u);
    }
  }
}

// Word-level frame propagation vs PauliString conjugation, exhaustively
// over all 16 two-qubit Paulis for every plane-mixing gate (and the
// no-op rule for X/Y/Z, which only change the frame's phase).
TEST(FrameProp, GateConjugationMatchesPauliString) {
  struct GateCase {
    const char* name;
    void (*emit)(Circuit&);
    void (*conj)(PauliString&);
  };
  const GateCase cases[] = {
      {"h0", [](Circuit& c) { c.h(0); },
       [](PauliString& p) { p.conjugate_h(0); }},
      {"s0", [](Circuit& c) { c.s(0); },
       [](PauliString& p) { p.conjugate_s(0); }},
      {"sdg0", [](Circuit& c) { c.sdg(0); },
       [](PauliString& p) { p.conjugate_sdg(0); }},
      {"x0", [](Circuit& c) { c.x(0); },
       [](PauliString& p) { p.conjugate_x(0); }},
      {"y0", [](Circuit& c) { c.y(0); },
       [](PauliString& p) { p.conjugate_y(0); }},
      {"z0", [](Circuit& c) { c.z(0); },
       [](PauliString& p) { p.conjugate_z(0); }},
      {"cnot01", [](Circuit& c) { c.cnot(0, 1); },
       [](PauliString& p) { p.conjugate_cnot(0, 1); }},
      {"cnot10", [](Circuit& c) { c.cnot(1, 0); },
       [](PauliString& p) { p.conjugate_cnot(1, 0); }},
      {"cz01", [](Circuit& c) { c.cz(0, 1); },
       [](PauliString& p) { p.conjugate_cz(0, 1); }},
      {"swap01", [](Circuit& c) { c.swap(0, 1); },
       [](PauliString& p) { p.conjugate_swap(0, 1); }},
  };
  for (const auto& gc : cases) {
    Circuit prep(2);
    Circuit g(2);
    g.x(0);  // site 0 (injection point, qubit 0)
    g.x(1);  // site 1 (injection point, qubit 1)
    gc.emit(g);
    FaultExperiment ex;
    ex.num_qubits = 2;
    ex.prep = prep;
    ex.gadget = g;
    ex.seed = 1;
    const frame::FrameProgram prog = analysis::make_frame_program(ex);

    // 16 lanes, one per 2-qubit Pauli.
    std::vector<std::vector<frame::PlantedFault>> lanes;
    std::vector<PauliString> want;
    for (int p0 = 0; p0 < 4; ++p0) {
      for (int p1 = 0; p1 < 4; ++p1) {
        std::vector<frame::PlantedFault> plant;
        PauliString p(2);
        p.set(0, static_cast<Pauli>(p0));
        p.set(1, static_cast<Pauli>(p1));
        if (p0 != 0)
          plant.push_back(frame::PlantedFault{
              0, PauliString::single(2, 0, static_cast<Pauli>(p0))});
        if (p1 != 0)
          plant.push_back(frame::PlantedFault{
              1, PauliString::single(2, 1, static_cast<Pauli>(p1))});
        gc.conj(p);
        lanes.push_back(std::move(plant));
        want.push_back(p);
      }
    }
    frame::FrameBatch batch(prog);
    batch.run_planted(lanes);
    for (unsigned l = 0; l < want.size(); ++l) {
      const PauliString got = batch.lane_frame(l);
      for (std::size_t q = 0; q < 2; ++q) {
        EXPECT_EQ(got.x_bit(q), want[l].x_bit(q))
            << gc.name << " lane " << l << " q" << q;
        EXPECT_EQ(got.z_bit(q), want[l].z_bit(q))
            << gc.name << " lane " << l << " q" << q;
      }
    }
  }
}

// The packed classical record agrees with the per-lane record, and the
// word-level majority the N-gate oracle computes agrees with a scalar
// majority over the unpacked bits.
TEST(FrameProp, PackedCbitsAndMajorityMatchScalar) {
  GadgetSpec spec;  // ngate / steane / k = 1
  spec.seed = 91;
  const BuiltGadget built = analysis::build_gadget_experiment(spec);
  const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
  const auto word = analysis::make_frame_oracle(spec.gadget, built, prog);
  const auto model = noise::NoiseModel::paper_model(1e-2);
  frame::FrameBatch batch(prog);
  batch.run_stochastic(model, spec.seed, 0, 64);

  // cbits_word vs lane_cbits.
  for (std::uint32_t slot = 0;
       slot < static_cast<std::uint32_t>(prog.num_gadget_cbits()); ++slot) {
    const std::uint64_t w = batch.cbits_word(slot);
    for (unsigned l = 0; l < 64; ++l)
      EXPECT_EQ((w >> l) & 1, batch.lane_cbits(l)[slot] ? 1u : 0u)
          << "slot " << slot << " lane " << l;
  }

  // The word verdict equals the exact per-lane replay...
  const std::uint64_t verdict = word(batch);
  const auto generic =
      analysis::make_generic_frame_oracle(built.ex, prog);
  EXPECT_EQ(verdict, generic(batch));

  // ...and its packed-popcount majority component agrees with a scalar
  // majority over the unpacked out-register bits (the reference run puts
  // |1>_L through the gate, so lane l's copied bit on out qubit q is the
  // reference value XOR the lane's X-frame bit; a failed majority is
  // sufficient for a failure verdict).
  TabBackend ref(prog.num_qubits(), Rng(spec.seed));
  {
    circuit::execute(built.ex.prep, ref);
    circuit::execute(built.ex.gadget, ref);
  }
  std::size_t majority_failures = 0;
  for (unsigned l = 0; l < 64; ++l) {
    std::size_t ones = 0;
    const PauliString f = batch.lane_frame(l);
    for (auto q : built.ngate_out) {
      bool v = ref.tableau().deterministic_z_value(q);
      if (f.x_bit(q)) v = !v;
      if (v) ++ones;
    }
    if (2 * ones <= built.ngate_out.size()) {
      ++majority_failures;
      EXPECT_EQ((verdict >> l) & 1, 1u) << "lane " << l;
    }
  }
  // p = 1e-2 over 64 lanes flips enough copies that the majority clause
  // is actually exercised.
  EXPECT_GT(majority_failures, 0u);
}

// The packed record and its per-lane view stay in step across classically
// controlled ops (each one unpacks the record; readouts after it must reach
// the unpacked copy), on partial tiles, and both match the per-trial
// measurement record: on recovery-measured, whose feed-forward follows all
// its readouts, and on a circuit interleaving readouts and feed-forward.
TEST(FrameProp, PackedCbitsTrackLaneRecordThroughCondOps) {
  auto check = [](const FaultExperiment& ex, const noise::NoiseModel& model,
                  unsigned count, const std::string& label) {
    const frame::FrameProgram prog = analysis::make_frame_program(ex);
    frame::FrameBatch batch(prog);
    batch.run_stochastic(model, 3, 0, count);
    std::size_t ones = 0;
    for (std::uint32_t slot = 0;
         slot < static_cast<std::uint32_t>(prog.num_gadget_cbits()); ++slot) {
      const std::uint64_t w = batch.cbits_word(slot);
      EXPECT_EQ(w & ~batch.active_mask(), 0u) << label << " slot " << slot;
      for (unsigned l = 0; l < count; ++l)
        EXPECT_EQ((w >> l) & 1, batch.lane_cbits(l)[slot] ? 1u : 0u)
            << label << " slot " << slot << " lane " << l;
      ones += static_cast<std::size_t>(std::popcount(w));
    }
    EXPECT_GT(ones, 0u) << label;
    for (unsigned l = 0; l < count; ++l) {
      Rng trial_rng(derive_stream_seed(3, l));
      TabBackend backend(ex.num_qubits, trial_rng.split());
      circuit::execute(ex.prep, backend);
      noise::StochasticInjector injector(model, trial_rng.split());
      const auto r = circuit::execute(ex.gadget, backend, &injector);
      EXPECT_EQ(r.cbits, batch.lane_cbits(l)) << label << " lane " << l;
    }
  };

  GadgetSpec spec;
  spec.gadget = "recovery-measured";
  spec.seed = 57;
  const BuiltGadget built = analysis::build_gadget_experiment(spec);
  check(built.ex, noise::NoiseModel::paper_model(1e-2), 37,
        "recovery-measured");

  FaultExperiment ex;
  ex.num_qubits = 3;
  ex.seed = 23;
  ex.prep = Circuit(3);
  Circuit g(3);
  g.h(0);
  const auto m0 = g.measure_z(0);  // random
  g.x_if(g.add_classical_func(
             [m0](const std::vector<bool>& bits) { return bits[m0]; }),
         1);
  const auto m1 = g.measure_z(1);  // written after the record was unpacked
  g.h(2);
  const auto m2 = g.measure_z(2);  // random, also after
  g.x_if(g.add_classical_func([m1, m2](const std::vector<bool>& bits) {
           return bits[m1] != bits[m2];
         }),
         0);
  g.measure_z(0);
  ex.gadget = g;
  check(ex, noise::NoiseModel::paper_model(0.05), 45, "interleaved");
}

// --- scheduling-invariance and resume --------------------------------------

// jobs = 1 / 4 / 0 (hardware) and the per-trial driver all fold the same
// bytes.
TEST(FrameEquiv, JobsByteIdentity) {
  GadgetSpec spec;  // ngate / steane / k = 1
  spec.seed = 123;
  const BuiltGadget built = analysis::build_gadget_experiment(spec);
  const auto model = noise::NoiseModel::paper_model(2e-3);
  const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
  const auto oracle = analysis::make_frame_oracle(spec.gadget, built, prog);
  const std::uint64_t kTrials = 1024;
  const auto serial =
      frame::run_trials(prog, model, kTrials, spec.seed, oracle, 1);
  const auto par4 =
      frame::run_trials(prog, model, kTrials, spec.seed, oracle, 4);
  const auto hw =
      frame::run_trials(prog, model, kTrials, spec.seed, oracle, 0);
  const auto trials =
      per_trial_counter(built.ex, model, kTrials, spec.seed, 4);
  expect_byte_identical(serial, par4, "jobs=4");
  expect_byte_identical(serial, hw, "jobs=0");
  expect_byte_identical(trials, serial, "per-trial vs frames");

  // Workers claim tiles dynamically: a partial last tile (1000 trials =
  // 15 full tiles + 40 lanes) and fewer tiles than workers (100 trials = 2
  // tiles on 7 workers) must fold the same bytes as the per-trial driver.
  struct Case {
    std::uint64_t trials;
    unsigned jobs;
  };
  for (const Case c : {Case{1000, 3}, Case{1000, 7}, Case{100, 7}}) {
    const std::string label = std::to_string(c.trials) + " trials, jobs=" +
                              std::to_string(c.jobs);
    expect_byte_identical(
        per_trial_counter(built.ex, model, c.trials, spec.seed, 4),
        frame::run_trials(prog, model, c.trials, spec.seed, oracle, c.jobs),
        label);
  }
}

// A run stopped mid-flight and resumed from its checkpoint folds to the
// same bytes as an uninterrupted run — across engines and jobs values.
TEST(FrameEquiv, CheckpointResumeByteIdentity) {
  GadgetSpec spec;  // ngate / steane / k = 1
  spec.seed = 321;
  const BuiltGadget built = analysis::build_gadget_experiment(spec);
  const auto model = noise::NoiseModel::paper_model(2e-3);
  const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
  const auto oracle = analysis::make_frame_oracle(spec.gadget, built, prog);
  const std::uint64_t kTrials = 600;

  const auto full =
      frame::run_trials(prog, model, kTrials, spec.seed, oracle, 1);

  std::atomic<bool> stop{false};
  noise::McResumableOptions first;
  first.block = 128;
  first.on_block = [&stop](const noise::McProgress& pr) {
    if (pr.next_index >= 128) stop.store(true);
  };
  first.stop = &stop;
  const auto r1 = frame::run_trials_resumable(prog, model, kTrials,
                                              spec.seed, oracle, first);
  ASSERT_FALSE(r1.complete);
  ASSERT_LT(r1.next_index, kTrials);
  ASSERT_GT(r1.next_index, 0u);

  noise::McResumableOptions second;
  second.start_index = r1.next_index;
  second.initial = r1.counter;
  second.jobs = 3;
  const auto r2 = frame::run_trials_resumable(prog, model, kTrials,
                                              spec.seed, oracle, second);
  ASSERT_TRUE(r2.complete);
  EXPECT_EQ(r2.next_index, kTrials);
  expect_byte_identical(full, r2.counter, "stopped+resumed vs full");

  // Cross-engine: the per-trial resumable driver folds the same bytes too.
  const auto& ex = built.ex;
  const auto per_trial = noise::run_trials_resumable(
      kTrials, spec.seed,
      [&ex, model](std::uint64_t, Rng& rng) {
        TabBackend backend(ex.num_qubits, rng.split());
        circuit::execute(ex.prep, backend);
        noise::StochasticInjector injector(model, rng.split());
        const auto r = circuit::execute(ex.gadget, backend, &injector);
        return ex.failed(backend, r);
      },
      noise::McResumableOptions{});
  expect_byte_identical(per_trial.counter, r2.counter,
                        "per-trial resumable vs frames resumed");
}

// analysis::run_gadget_mc — the one engine dispatch behind eqc_matrix, the
// serve MC jobs and eqc_faultscan --mc — returns the same McRunResult on
// both engines, whole or split by a stop token and resumed.
TEST(FrameEquiv, RunGadgetMcEnginesAgreeAndResume) {
  struct Case {
    const char* gadget;
    double p;
    std::uint64_t trials;
  };
  for (const Case c : {Case{"ngate", 1e-2, 640}, Case{"recovery", 1e-3, 128}}) {
    GadgetSpec spec;  // steane / k = 1 / paper noise
    spec.gadget = c.gadget;
    spec.seed = 77;
    const BuiltGadget built = analysis::build_gadget_experiment(spec);
    const auto model = analysis::scenario_noise_model(spec.scenario, c.p);
    const auto reference =
        per_trial_counter(built.ex, model, c.trials, spec.seed, 4);
    EXPECT_GT(reference.failures, 0u) << c.gadget;
    for (const std::string engine : {"trials", "frames"}) {
      const std::string label = std::string(c.gadget) + "/" + engine;
      noise::McResumableOptions whole_opt;
      whole_opt.jobs = 2;
      const auto whole = analysis::run_gadget_mc(
          c.gadget, built, model, c.trials, spec.seed, engine, whole_opt);
      EXPECT_TRUE(whole.complete) << label;
      EXPECT_EQ(whole.next_index, c.trials) << label;
      expect_byte_identical(reference, whole.counter, label);

      std::atomic<bool> stop{false};
      noise::McResumableOptions first;
      first.block = 64;
      first.stop = &stop;
      first.on_block = [&stop](const noise::McProgress&) { stop.store(true); };
      const auto r1 = analysis::run_gadget_mc(c.gadget, built, model,
                                              c.trials, spec.seed, engine,
                                              first);
      ASSERT_FALSE(r1.complete) << label;
      EXPECT_EQ(r1.next_index, 64u) << label;

      noise::McResumableOptions second;
      second.start_index = r1.next_index;
      second.initial = r1.counter;
      second.jobs = 3;
      const auto r2 = analysis::run_gadget_mc(c.gadget, built, model,
                                              c.trials, spec.seed, engine,
                                              second);
      EXPECT_TRUE(r2.complete) << label;
      EXPECT_EQ(r2.next_index, c.trials) << label;
      expect_byte_identical(whole.counter, r2.counter, label + " resumed");
    }
  }
}

// --- planted-fault replay ---------------------------------------------------

// 64 independent fault sets replayed in ONE batch give the same verdicts
// as analysis::run_with_faults one set at a time (single faults and
// pairs, ngate and recovery).
TEST(FramePlanted, MultiLaneMatchesRunWithFaults) {
  std::uint64_t seed = 200;
  for (const std::string gadget : {"ngate", "recovery"}) {
    GadgetSpec spec;
    spec.gadget = gadget;
    spec.seed = ++seed;
    const BuiltGadget built = analysis::build_gadget_experiment(spec);
    const frame::FrameProgram prog = analysis::make_frame_program(built.ex);
    const auto oracle =
        analysis::make_frame_oracle(gadget, built, prog);
    const auto faults = analysis::enumerate_single_faults(built.ex);
    ASSERT_GT(faults.size(), 64u);

    Rng rng(7);
    std::vector<std::vector<analysis::Fault>> sets;
    for (unsigned l = 0; l < 64; ++l) {
      std::vector<analysis::Fault> set = {
          faults[rng.below(faults.size())]};
      if (l % 2 == 1) {  // odd lanes carry a fault pair
        auto second = faults[rng.below(faults.size())];
        if (second.ordinal != set[0].ordinal) set.push_back(second);
      }
      sets.push_back(std::move(set));
    }
    std::vector<std::vector<frame::PlantedFault>> lanes;
    for (const auto& set : sets) {
      std::vector<frame::PlantedFault> lane;
      for (const auto& f : set)
        lane.push_back(frame::PlantedFault{f.ordinal, f.error});
      lanes.push_back(std::move(lane));
    }
    frame::FrameBatch batch(prog);
    batch.run_planted(lanes);
    const std::uint64_t verdict = oracle(batch);
    for (unsigned l = 0; l < 64; ++l) {
      EXPECT_EQ((verdict >> l) & 1,
                analysis::run_with_faults(built.ex, sets[l]) ? 1u : 0u)
          << gadget << " lane " << l;
    }
    // Planted lanes share the reference backend stream (compare by
    // drawing: equal states produce equal outputs).
    for (unsigned l = 0; l < 8; ++l) {
      Rng lane_rng = batch.lane_backend_rng(l);
      Rng ref_rng = prog.reference_rng_after();
      for (int d = 0; d < 4; ++d) EXPECT_EQ(lane_rng(), ref_rng());
    }
  }
}

// Faults fold in by tape position, so the sites where a position boundary
// is easiest to get wrong are planted one lane at a time: the first site,
// the last site (past the final instruction), every MeasureZ input site
// (folded before its readout), two sites sharing one position, and a lane
// whose fault list runs in descending ordinal order.  Each lane's
// measurement record and verdict equal the per-trial executor's.
TEST(FramePlanted, HitsAtTapeEdgesMatchPerTrial) {
  using circuit::FaultSite;
  std::uint64_t seed = 500;
  for (const std::string gadget : {"ngate", "recovery-measured"}) {
    GadgetSpec spec;  // steane / k = 1
    spec.gadget = gadget;
    spec.seed = ++seed;
    const BuiltGadget built = analysis::build_gadget_experiment(spec);
    const FaultExperiment& ex = built.ex;
    const frame::FrameProgram prog = analysis::make_frame_program(ex);
    const auto oracle = analysis::make_frame_oracle(gadget, built, prog);
    const auto sites = circuit::enumerate_fault_sites(ex.gadget);
    ASSERT_EQ(sites.size(), prog.num_sites()) << gadget;

    // A weight-1 fault of Pauli `p` at `ordinal` on the site's first qubit.
    auto fault = [&](std::size_t ordinal, Pauli p) {
      return analysis::Fault{
          ordinal, PauliString::single(ex.num_qubits,
                                       sites[ordinal].qubits.at(0), p)};
    };
    const std::size_t last = sites.size() - 1;
    // A MeasureZ input site precedes its readout; any other last site
    // follows every instruction of the tape.
    ASSERT_NE(sites[last].kind, FaultSite::Kind::MeasureInput) << gadget;

    std::vector<std::vector<analysis::Fault>> sets;
    for (Pauli p : {Pauli::X, Pauli::Z, Pauli::Y}) {
      sets.push_back({fault(0, p)});
      sets.push_back({fault(last, p)});
    }
    // ngate measures nothing; recovery-measured reads out 18 times.
    std::vector<std::size_t> measured;
    for (const FaultSite& s : sites)
      if (s.kind == FaultSite::Kind::MeasureInput)
        measured.push_back(s.ordinal);
    EXPECT_EQ(measured.size(), gadget == "ngate" ? 0u : 18u) << gadget;
    for (std::size_t o : measured) sets.push_back({fault(o, Pauli::X)});
    // An idle site compiles no instruction, so it shares its tape position
    // with the site before it unless that one precedes a readout.
    std::size_t shared = 0;
    while (shared + 1 < sites.size() &&
           !(sites[shared + 1].kind == FaultSite::Kind::Idle &&
             sites[shared].kind != FaultSite::Kind::MeasureInput))
      ++shared;
    ASSERT_LT(shared + 1, sites.size()) << gadget;
    sets.push_back({fault(shared, Pauli::X), fault(shared + 1, Pauli::Z)});
    sets.push_back({fault(shared, Pauli::X), fault(shared + 1, Pauli::X)});
    std::vector<analysis::Fault> descending = {
        fault(0, Pauli::X), fault(shared + 1, Pauli::Y), fault(last, Pauli::X)};
    if (!measured.empty()) descending.push_back(fault(measured[0], Pauli::X));
    std::sort(descending.begin(), descending.end(),
              [](const analysis::Fault& a, const analysis::Fault& b) {
                return a.ordinal > b.ordinal;
              });
    sets.push_back(std::move(descending));
    ASSERT_LE(sets.size(), std::size_t{frame::FrameBatch::kLanes}) << gadget;

    std::vector<std::vector<frame::PlantedFault>> lanes;
    for (const auto& set : sets) {
      std::vector<frame::PlantedFault> lane;
      for (const auto& f : set)
        lane.push_back(frame::PlantedFault{f.ordinal, f.error});
      lanes.push_back(std::move(lane));
    }
    frame::FrameBatch batch(prog);
    batch.run_planted(lanes);
    const std::uint64_t verdict = oracle(batch);
    for (unsigned l = 0; l < sets.size(); ++l) {
      TabBackend backend(ex.num_qubits, Rng(ex.seed));
      circuit::execute(ex.prep, backend);
      circuit::PlantedInjector injector;
      for (const auto& f : sets[l]) injector.plant(f.ordinal, f.error);
      const auto r = circuit::execute(ex.gadget, backend, &injector);
      ASSERT_TRUE(injector.all_planted_visited()) << gadget << " lane " << l;
      EXPECT_EQ(batch.lane_cbits(l), r.cbits) << gadget << " lane " << l;
      // The trial state is F |ref>: each reference stabilizer holds with
      // its sign flipped iff it anticommutes with the lane frame F.  (Checked
      // before the oracle, which may correct the backend in place.)
      const PauliString frame_l = batch.lane_frame(l);
      const stab::Tableau& ref = prog.reference_tableau();
      for (std::size_t i = 0; i < ref.num_qubits(); ++i) {
        PauliString g = ref.stabilizer(i);
        if (!g.commutes_with(frame_l)) g.set_phase(g.phase() + 2);
        EXPECT_TRUE(backend.tableau().state_is_stabilized_by(g))
            << gadget << " lane " << l << " stabilizer " << i;
      }
      EXPECT_EQ((verdict >> l) & 1, ex.failed(backend, r) ? 1u : 0u)
          << gadget << " lane " << l;
    }
  }
}

// --- differential-layer self-tests -----------------------------------------

// The planted CNOT-swap bug visibly corrupts propagation: the differential
// layer is capable of catching a real frame bug.
TEST(FrameBug, CnotSwappedDiverges) {
  Circuit prep(2);
  Circuit g(2);
  g.x(0);  // site 0: injection point on the control
  g.cnot(0, 1);
  FaultExperiment ex;
  ex.num_qubits = 2;
  ex.prep = prep;
  ex.gadget = g;
  ex.seed = 1;

  frame::FrameProgram good = analysis::make_frame_program(ex);
  frame::FrameProgram bad = analysis::make_frame_program(ex);
  bad.set_planted_bug(frame::FrameBug::CnotSwapped);
  ASSERT_EQ(bad.planted_bug(), frame::FrameBug::CnotSwapped);

  const std::vector<std::vector<frame::PlantedFault>> lanes = {
      {frame::PlantedFault{0, PauliString::single(2, 0, Pauli::X)}}};
  frame::FrameBatch gb(good);
  gb.run_planted(lanes);
  frame::FrameBatch bb(bad);
  bb.run_planted(lanes);

  // Correct rule: X on the control copies onto the target.
  EXPECT_TRUE(gb.lane_frame(0).x_bit(0));
  EXPECT_TRUE(gb.lane_frame(0).x_bit(1));
  // Swapped rule: the X stays on the control only.
  EXPECT_TRUE(bb.lane_frame(0).x_bit(0));
  EXPECT_FALSE(bb.lane_frame(0).x_bit(1));
}

// A classically-controlled S whose control deviates while the target is
// not classical throws FrameUnsupported — and only when a lane actually
// deviates.
TEST(FrameBug, UnsupportedDeviationThrows) {
  Circuit prep(2);
  prep.h(0);  // target in |+>: not classical
  Circuit g(2);
  g.x(1);         // site 0: injection point on the control
  g.cs(1, 0);     // control |1> classical in the reference -> lowered
  FaultExperiment ex;
  ex.num_qubits = 2;
  ex.prep = prep;
  ex.gadget = g;
  ex.seed = 1;
  const frame::FrameProgram prog = analysis::make_frame_program(ex);

  // No deviation: fine.  Z-type deviation: absorbed.  X-type deviation on
  // the control with a non-classical target: unsupported.
  frame::FrameBatch clean(prog);
  EXPECT_NO_THROW(clean.run_planted({{}}));
  frame::FrameBatch zdev(prog);
  EXPECT_NO_THROW(zdev.run_planted(
      {{frame::PlantedFault{0, PauliString::single(2, 1, Pauli::Z)}}}));
  frame::FrameBatch xdev(prog);
  EXPECT_THROW(xdev.run_planted({{frame::PlantedFault{
                   0, PauliString::single(2, 1, Pauli::X)}}}),
               frame::FrameUnsupported);
}

}  // namespace
}  // namespace eqc
