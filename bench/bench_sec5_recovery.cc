// E5 — Section 5: measurement-free error recovery.
//
// Reproduced claims:
//  (a) the measurement-free recovery circuit corrects every weight-1 Pauli
//      error (syndrome extracted into classical-basis bits, decoded by
//      reversible classical logic, corrected by classically controlled
//      Paulis — no measurement anywhere);
//  (b) no single internal fault causes a logical error (after one ideal
//      decode), so the per-gadget logical error rate is O(p^2);
//  (c) the measurement-free gadget matches the measurement-based baseline's
//      fault-tolerance order: Monte-Carlo rate curves coincide in shape;
//  (d) fault-pair counting gives the p^2 coefficient and pseudo-threshold.
#include <cstdio>

#include "analysis/experiments.h"
#include "analysis/frame_oracle.h"
#include "bench_util.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "codes/css_code.h"
#include "frame/driver.h"
#include "ftqc/layout.h"
#include "ftqc/recovery.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"

using namespace eqc;

namespace {

analysis::FaultExperiment make_experiment(bool plus, bool measurement_free) {
  ftqc::Layout layout;
  const codes::CodeBlock data = layout.block(codes::steane_code());
  auto anc = ftqc::allocate_recovery_ancillas(layout, codes::steane_code());

  analysis::FaultExperiment ex;
  ex.num_qubits = layout.total();
  ex.prep = circuit::Circuit(layout.total());
  if (plus)
    codes::steane_code().append_encode_plus(ex.prep, data);
  else
    codes::steane_code().append_encode_zero(ex.prep, data);
  ex.gadget = circuit::Circuit(layout.total());
  ftqc::RecoveryOptions opt;
  opt.measurement_free = measurement_free;
  ftqc::append_recovery(ex.gadget, codes::steane_code(), data, anc, opt);

  ex.failed = [data, plus](circuit::TabBackend& b,
                           const circuit::ExecResult&) {
    Rng rng(5);
    codes::steane_code().perfect_correct(b.tableau(), data, rng);
    const auto logical =
        plus ? codes::steane_code().logical_x_op(b.tableau().num_qubits(),
                                                 data)
             : codes::steane_code().logical_z_op(b.tableau().num_qubits(),
                                                 data);
    return b.tableau().expectation_pauli(logical) != 1.0;
  };
  return ex;
}

FailureCounter monte_carlo(const analysis::FaultExperiment& ex, double p,
                           std::uint64_t trials, std::uint64_t seed,
                           unsigned jobs) {
  const auto model = noise::NoiseModel::paper_model(p);
  return noise::run_trials(
      trials, seed,
      [&](Rng& rng) { return analysis::run_noisy(ex, model, rng); }, jobs);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("sec5_recovery", argc, argv);
  bench::banner("E5 / Section 5: measurement-free error recovery");
  int failures = 0;

  bench::section("(a) corrects every weight-1 Pauli error, both bases");
  {
    const auto ph = rep.scoped_phase("planted_errors");
    bool all_ok = true;
    for (bool plus : {false, true}) {
      const auto ex = make_experiment(plus, true);
      // Plant each weight-1 error as an Input-style fault by extending the
      // prep circuit; simpler: use run_with_faults with faults on the data
      // qubits' first gadget sites.  Here we instead run 21 dedicated
      // experiments with the error folded into prep.
      for (int pos = 0; pos < 7 && all_ok; ++pos) {
        for (pauli::Pauli pl :
             {pauli::Pauli::X, pauli::Pauli::Y, pauli::Pauli::Z}) {
          auto ex2 = make_experiment(plus, true);
          switch (pl) {
            case pauli::Pauli::X: ex2.prep.x(pos); break;
            case pauli::Pauli::Y: ex2.prep.y(pos); break;
            case pauli::Pauli::Z: ex2.prep.z(pos); break;
            default: break;
          }
          // The oracle includes perfect_correct; to show the *gadget*
          // corrected the planted error we forbid it from relying on the
          // final ideal decode: check the syndrome is already clean.
          circuit::TabBackend backend(ex2.num_qubits, Rng(1));
          circuit::execute(ex2.prep, backend);
          const auto result = circuit::execute(ex2.gadget, backend);
          const auto data = codes::CodeBlock::contiguous(0, 7);
          const codes::CssCode& code = codes::steane_code();
          const std::size_t n = backend.tableau().num_qubits();
          all_ok = all_ok && code.block_in_codespace(backend.tableau(), data);
          const auto logical = plus ? code.logical_x_op(n, data)
                                    : code.logical_z_op(n, data);
          all_ok =
              all_ok && backend.tableau().expectation_pauli(logical) == 1.0;
          (void)result;
        }
      }
    }
    failures += bench::verdict(all_ok,
                               "all 21 x 2 planted weight-1 errors corrected "
                               "without measurement");
  }

  bench::section("(b) single-fault injection inside the gadget");
  // The gadget is large (~3k ops; the burst-repaired ancilla preparation
  // runs an N gate per extraction), so the default run samples distinct
  // faults from the universe; raise EQC_BENCH_SCALE until the budget covers
  // it for the fully exhaustive scan (which reports 0 failures — see
  // EXPERIMENTS.md).
  {
    const auto ph = rep.scoped_phase("single_faults");
    for (bool plus : {false, true}) {
      const auto ex = make_experiment(plus, true);
      const auto report =
          bench::count_fault_sets(ex, 1, bench::scaled(6000), rep.jobs());
      std::printf("  input |%s>_L: %zu sites, %llu faults tested (%s), %llu "
                  "failures\n",
                  plus ? "+" : "0", report.num_sites,
                  static_cast<unsigned long long>(report.sets_tested),
                  report.exhaustive ? "exhaustive" : "distinct, sampled",
                  static_cast<unsigned long long>(report.malignant));
      failures += bench::verdict(report.malignant == 0,
                                 "no sampled single fault causes a logical "
                                 "error");
    }
  }

  bench::section("(c) Monte-Carlo: measurement-free vs measurement-based");
  {
    const auto ph = rep.scoped_phase("mc");
    // The measurement-free gadget is large (the burst-repaired ancilla
    // preparation runs an N gate per extraction), so its pseudo-threshold
    // sits around 1e-5 and the sweep must stay below it to show the
    // quadratic regime.
    const std::vector<double> ps = {1e-5, 3e-5, 1e-4};
    const std::uint64_t trials = bench::scaled(2000);
    {
      const auto mf = make_experiment(false, true);
      const auto mb = make_experiment(false, false);
      std::printf("  fault sites: measurement-free %zu, measured %zu\n",
                  circuit::enumerate_fault_sites(mf.gadget).size(),
                  circuit::enumerate_fault_sites(mb.gadget).size());
    }
    std::printf("  %-9s %-27s %-27s\n", "p", "measurement-free",
                "measured baseline");
    std::vector<double> mf_rates, mb_rates;
    const bench::WallTimer timer;
    for (double p : ps) {
      const auto mf = monte_carlo(make_experiment(false, true), p, trials, 31,
                                  rep.jobs());
      const auto mb = monte_carlo(make_experiment(false, false), p, trials, 37,
                                  rep.jobs());
      mf_rates.push_back(mf.rate());
      mb_rates.push_back(mb.rate());
      char key[48];
      std::snprintf(key, sizeof key, "meas_free_p%g", p);
      rep.counter(key, mf);
      std::snprintf(key, sizeof key, "measured_p%g", p);
      rep.counter(key, mb);
      std::printf("  %-9.0e %-27s %-27s\n", p, bench::rate_ci(mf).c_str(),
                  bench::rate_ci(mb).c_str());
    }
    const double slope_mf = bench::loglog_slope(ps, mf_rates);
    const double slope_mb = bench::loglog_slope(ps, mb_rates);
    rep.metric("mc_wall_ms", json::Value(timer.ms()));
    rep.metric("slope_meas_free", json::Value(slope_mf));
    rep.metric("slope_measured", json::Value(slope_mb));
    std::printf("  log-log slopes: measurement-free %.2f, measured %.2f\n",
                slope_mf, slope_mb);
    failures += bench::verdict(slope_mf > 1.4,
                               "measurement-free recovery scales ~ p^2");
    failures += bench::verdict(
        slope_mb > 1.5, "baseline also ~ p^2: removing measurements costs "
                        "no fault-tolerance order");
  }

  bench::section("(d) fault-pair counting");
  {
    const auto ph = rep.scoped_phase("fault_pairs");
    const auto ex = make_experiment(false, true);
    const auto report =
        bench::count_fault_sets(ex, 2, bench::scaled(4000), rep.jobs());
    std::printf("  sites L = %zu, pairs = %llu (%s), malignant %.3f%%\n",
                report.num_sites,
                static_cast<unsigned long long>(report.sets_tested),
                report.exhaustive ? "exhaustive" : "sampled",
                100.0 * report.malignant_fraction());
    std::printf("  P_fail ~ %.1f p^2  =>  pseudo-threshold p* ~ %.2e\n",
                report.p_k_coefficient(), report.pseudo_threshold());
    rep.metric("pair_p2_coefficient", json::Value(report.p_k_coefficient()));
    rep.metric("pair_pseudo_threshold", json::Value(report.pseudo_threshold()));
    failures +=
        bench::verdict(report.pseudo_threshold() < 1.0, "threshold finite");
  }

  bench::section("(e) batch frame engine: 64 trials/word, bit-exact speedup");
  {
    const auto ph = rep.scoped_phase("frames_mc");
    analysis::GadgetSpec spec;  // steane / k=1 / paper noise
    spec.gadget = "recovery";
    const auto built = analysis::build_gadget_experiment(spec);
    const auto model = noise::NoiseModel::paper_model(1e-4);
    const std::uint64_t trials = bench::scaled(2000);
    const std::uint64_t seed = 47;

    const auto& ex = built.ex;
    const bench::WallTimer t_trials;
    const auto c_trials = noise::run_trials_indexed(
        trials, seed,
        [&ex, &model](std::uint64_t, Rng& rng) {
          return analysis::run_noisy(ex, model, rng);
        },
        rep.jobs());
    const double trials_ms = t_trials.ms();

    const bench::WallTimer t_frames;
    const auto prog = analysis::make_frame_program(built.ex);
    const auto oracle = analysis::make_frame_oracle("recovery", built, prog);
    const auto c_frames =
        frame::run_trials(prog, model, trials, seed, oracle, rep.jobs());
    const double frames_ms = t_frames.ms();

    const double speedup = frames_ms > 0.0 ? trials_ms / frames_ms : 0.0;
    std::printf("  per-trial engine: %s  (%.0f ms)\n",
                bench::rate_ci(c_trials).c_str(), trials_ms);
    std::printf("  frame engine:     %s  (%.0f ms, compile included)\n",
                bench::rate_ci(c_frames).c_str(), frames_ms);
    std::printf("  speedup: %.1fx over %llu trials\n", speedup,
                static_cast<unsigned long long>(trials));
    rep.counter("engine_trials", c_trials);
    rep.counter("engine_frames", c_frames);
    rep.metric("frames_mc_trials_wall_ms", json::Value(trials_ms));
    rep.metric("frames_mc_frames_wall_ms", json::Value(frames_ms));
    rep.metric("frames_speedup", json::Value(speedup));
    failures += bench::verdict(
        c_frames.to_json_value().dump() == c_trials.to_json_value().dump(),
        "frame-engine counter is byte-identical to the per-trial driver");
    // Timing gate only at full scale (see bench_fig1_ngate): scaled-down
    // runs keep "pass" free of machine-dependent bits.
    if (trials >= 2000)
      failures += bench::verdict(speedup >= 10.0,
                                 "frame engine >= 10x per-trial MC throughput");
    else
      std::printf("  (speedup gate skipped below full scale)\n");
  }

  return rep.finish(failures);
}
