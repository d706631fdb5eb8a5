// E1 — Figure 1: the N gate (quantum-to-classical controlled-NOT).
//
// Reproduced claims:
//  (a) the copy is correct on codewords (and realizes Eq. (1) coherently);
//  (b) NO single fault anywhere in the gadget corrupts the majority-decoded
//      classical value or leaves the quantum ancilla uncorrectable
//      ("Only two errors ... shall yield an error in the classical bit");
//  (c) therefore the failure rate is O(p^2): Monte-Carlo sweep slope ~2,
//      and the fault-pair count gives the leading coefficient and a
//      pseudo-threshold (the paper's own counting methodology);
//  (d) ablations: without the Hamming syndrome check, or with a single
//      repetition, single faults break the gate (slope -> 1).
#include <cstdio>

#include "analysis/experiments.h"
#include "analysis/frame_oracle.h"
#include "bench_util.h"
#include "codes/css_code.h"
#include "common/stats.h"
#include "frame/driver.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"

using namespace eqc;

namespace {

struct NGateBench {
  ftqc::Layout layout;
  codes::CodeBlock source;
  ftqc::NGateAncillas anc;
  std::vector<std::uint32_t> out;
  bool one;
  ftqc::NGateOptions options;

  NGateBench(bool logical_one, int reps, bool syndrome) : one(logical_one) {
    source = layout.block(codes::steane_code());
    anc = ftqc::allocate_ngate_ancillas(layout, codes::steane_code(), reps);
    out = layout.reg(7);
    options.repetitions = reps;
    options.syndrome_check = syndrome;
  }

  analysis::FaultExperiment experiment() const {
    analysis::FaultExperiment ex;
    ex.num_qubits = layout.total();
    ex.prep = circuit::Circuit(layout.total());
    codes::steane_code().append_encode_zero(ex.prep, source);
    if (one) codes::steane_code().append_logical_x(ex.prep, source);
    ex.gadget = circuit::Circuit(layout.total());
    ftqc::append_ngate(ex.gadget, codes::steane_code(), source, out, anc,
                       options);
    const auto out_copy = out;
    const auto src = source;
    const bool want = one;
    ex.failed = [out_copy, src, want](circuit::TabBackend& b,
                                      const circuit::ExecResult&) {
      int ones = 0;
      for (auto q : out_copy)
        ones += b.tableau().deterministic_z_value(q) ? 1 : 0;
      if ((2 * ones > static_cast<int>(out_copy.size())) != want) return true;
      Rng rng(3);
      codes::steane_code().perfect_correct(b.tableau(), src, rng);
      return codes::steane_code().logical_z_expectation(b.tableau(), src) !=
             (want ? -1.0 : 1.0);
    };
    return ex;
  }
};

/// Monte-Carlo failure count of the named N-gate cell (Steane, |1>_L
/// source, repetition k, parity check on or off) through the frame engine:
/// the same counter as `trials` per-trial runs of analysis::run_noisy.
FailureCounter ngate_mc(int k, bool syndrome, const noise::NoiseModel& model,
                        std::uint64_t trials, std::uint64_t seed,
                        unsigned jobs) {
  analysis::GadgetSpec spec;
  spec.scenario.repetition_k = k;
  spec.syndrome = syndrome;
  const auto built = analysis::build_gadget_experiment(spec);
  noise::McResumableOptions opt;
  opt.jobs = jobs;
  return analysis::run_gadget_mc(spec.gadget, built, model, trials, seed, opt);
}

std::string p_key(const char* prefix, double p) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%s_p%g", prefix, p);
  return std::string(buf);
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("fig1_ngate", argc, argv);
  bench::banner("E1 / Figure 1: the N gate (measurement-free logical copy)");
  int failures = 0;

  bench::section("(a) correctness on codewords");
  {
    const auto ph = rep.scoped_phase("correctness");
    for (bool one : {false, true}) {
      NGateBench b(one, 3, true);
      const auto ex = b.experiment();
      const bool bad = analysis::run_with_faults(ex, {});
      failures += bench::verdict(!bad, std::string("copies |") +
                                           (one ? "1" : "0") +
                                           ">_L onto the classical register");
    }
  }

  bench::section("(b) exhaustive single-fault injection (paper fault model)");
  {
    const auto ph = rep.scoped_phase("single_faults");
    for (bool one : {false, true}) {
      NGateBench b(one, 3, true);
      const auto report =
          bench::count_fault_sets(b.experiment(), 1, 0, rep.jobs());
      std::printf("  input |%d>_L: %zu sites, %llu faults, %llu failures\n",
                  one ? 1 : 0, report.num_sites,
                  static_cast<unsigned long long>(report.sets_tested),
                  static_cast<unsigned long long>(report.malignant));
      failures += bench::verdict(report.malignant == 0,
                                 "no single fault corrupts the copy");
    }
  }

  bench::section("(b') model sensitivity: correlated multi-qubit gate faults");
  {
    const auto ph = rep.scoped_phase("correlated_single_faults");
    NGateBench b(true, 3, true);
    auto ex = b.experiment();
    ex.model = analysis::FaultModel::FullDepolarizing;
    const auto report = bench::count_fault_sets(ex, 1, 0, rep.jobs());
    std::printf(
        "  correlated model: %llu faults, %llu failures "
        "(e.g. XX on a majority CCX's controls flips 2 of 3 copies)\n",
        static_cast<unsigned long long>(report.sets_tested),
        static_cast<unsigned long long>(report.malignant));
    std::printf(
        "  -> the paper's per-location counting assumes one error per "
        "location;\n     correlated 2-qubit faults need k' = 2 (5 "
        "repetitions) to absorb.\n");
  }

  bench::section("(c) fault-pair counting -> p^2 coefficient & threshold");
  {
    const auto ph = rep.scoped_phase("fault_pairs");
    NGateBench b(true, 3, true);
    const auto report = bench::count_fault_sets(
        b.experiment(), 2, bench::scaled(20000), rep.jobs());
    std::printf("  sites L = %zu, pairs tested = %llu (%s), malignant = %llu "
                "(%.3f%%)\n",
                report.num_sites,
                static_cast<unsigned long long>(report.sets_tested),
                report.exhaustive ? "exhaustive" : "sampled",
                static_cast<unsigned long long>(report.malignant),
                100.0 * report.malignant_fraction());
    std::printf("  P_fail ~ %.1f p^2  =>  pseudo-threshold p* ~ %.2e\n",
                report.p_k_coefficient(), report.pseudo_threshold());
    rep.metric("pair_p2_coefficient", json::Value(report.p_k_coefficient()));
    rep.metric("pair_pseudo_threshold",
               json::Value(report.pseudo_threshold()));
    failures += bench::verdict(report.malignant > 0 &&
                                   report.pseudo_threshold() < 1.0,
                               "two faults suffice; threshold finite");
  }

  bench::section("(d) Monte-Carlo failure-rate sweep (paper error model)");
  {
    const auto ph = rep.scoped_phase("mc_sweep");
    const std::vector<double> ps = {3e-4, 1e-3, 3e-3};
    const std::uint64_t trials = bench::scaled(12000);
    const bench::WallTimer timer;
    std::printf("  %-9s %-27s %-27s %-27s\n", "p", "FT (3,synd)",
                "no-syndrome", "1 repetition");
    std::vector<double> ft_rates, nos_rates, rep1_rates;
    for (double p : ps) {
      const auto model = noise::NoiseModel::paper_model(p);
      const auto c_ft = ngate_mc(1, true, model, trials, 42, rep.jobs());
      const auto c_nos = ngate_mc(1, false, model, trials, 43, rep.jobs());
      const auto c_rep1 = ngate_mc(0, true, model, trials, 44, rep.jobs());
      ft_rates.push_back(c_ft.rate());
      nos_rates.push_back(c_nos.rate());
      rep1_rates.push_back(c_rep1.rate());
      rep.counter(p_key("ft", p), c_ft);
      rep.counter(p_key("no_syndrome", p), c_nos);
      rep.counter(p_key("rep1", p), c_rep1);
      std::printf("  %-9.0e %-27s %-27s %-27s\n", p,
                  bench::rate_ci(c_ft).c_str(), bench::rate_ci(c_nos).c_str(),
                  bench::rate_ci(c_rep1).c_str());
    }
    const double slope_ft = bench::loglog_slope(ps, ft_rates);
    const double slope_nos = bench::loglog_slope(ps, nos_rates);
    std::printf("  log-log slope: FT %.2f (expect ~2), no-syndrome %.2f "
                "(expect ~1)\n",
                slope_ft, slope_nos);
    rep.metric("mc_sweep_wall_ms", json::Value(timer.ms()));
    rep.metric("slope_ft", json::Value(slope_ft));
    rep.metric("slope_no_syndrome", json::Value(slope_nos));
    failures += bench::verdict(slope_ft > 1.5, "FT variant scales ~ p^2");
    failures += bench::verdict(slope_nos < slope_ft,
                               "ablation degrades the scaling");
  }

  bench::section("(d') correlated gate noise (stronger model) for contrast");
  {
    const auto ph = rep.scoped_phase("correlated_mc");
    const std::vector<double> ps = {1e-3, 3e-3, 1e-2};
    const std::uint64_t trials = bench::scaled(3000);
    std::vector<double> rates;
    std::printf("  %-9s %-27s\n", "p", "FT (3,synd)");
    for (double p : ps) {
      const auto c = ngate_mc(1, true, noise::NoiseModel::depolarizing(p),
                              trials, 52, rep.jobs());
      rates.push_back(c.rate());
      rep.counter(p_key("correlated_ft", p), c);
      std::printf("  %-9.0e %-27s\n", p, bench::rate_ci(c).c_str());
    }
    std::printf("  log-log slope: %.2f — correlated single faults (the\n"
                "  majority fan-out hazard) reintroduce a linear term.\n",
                bench::loglog_slope(ps, rates));
  }

  bench::section("(e) batch frame engine: 64 trials/word, bit-exact speedup");
  {
    const auto ph = rep.scoped_phase("frames_mc");
    const analysis::GadgetSpec spec;  // ngate / steane / k=1 / paper noise
    const auto built = analysis::build_gadget_experiment(spec);
    const auto model = noise::NoiseModel::paper_model(1e-3);
    const std::uint64_t trials = bench::scaled(20000);
    const std::uint64_t seed = 62;

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
    const auto oracle = analysis::make_frame_oracle("ngate", built, prog);
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
    // The throughput gate needs full-scale trials to amortize the frame
    // compile; below that (CI's scaled-down determinism runs) the verdict
    // would add a timing-dependent bit to "pass".
    if (trials >= 20000)
      failures += bench::verdict(speedup >= 50.0,
                                 "frame engine >= 50x per-trial MC throughput");
    else
      std::printf("  (speedup gate skipped below full scale)\n");
  }

  return rep.finish(failures);
}
