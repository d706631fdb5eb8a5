// E3 — Figure 3: the measurement-free fault-tolerant sigma_z^{1/4} (T).
//
// Reproduced claims:
//  (a) the gadget equals logical T exactly (state vector, full Steane code,
//      all basis inputs + superpositions), with the N gate replacing the
//      measurement of the original protocol;
//  (b) the exact Fig. 3 configuration (3 repetitions + Hamming check) is
//      also exact, and the measurement-based baseline produces the same
//      output — removing the measurement costs nothing;
//  (c) under noise, the measurement-free gadget's logical error rate
//      tracks the measurement-based baseline (state-vector Monte Carlo);
//  (d) a sampled single-fault scan of the full configuration finds no
//      failures (the fault-tolerance property, spot-checked at 22 qubits).
#include <cmath>
#include <complex>
#include <cstdio>

#include "bench_util.h"
#include "circuit/execute.h"
#include "circuit/sv_backend.h"
#include "codes/steane.h"
#include "common/stats.h"
#include "ftqc/baselines.h"
#include "ftqc/ft_tgate.h"
#include "ftqc/layout.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"

using namespace eqc;
using codes::Steane;

namespace {

const cplx kOmega = std::polar(1.0, M_PI / 4);
const double kInv = 1.0 / std::sqrt(2.0);

struct TBench {
  ftqc::Layout layout;
  ftqc::TGateRegisters regs;
  ftqc::NGateOptions options;

  TBench(int reps, bool syndrome) {
    regs.data = layout.block(codes::steane_code());
    regs.special = layout.block(codes::steane_code());
    regs.n_anc.copies = layout.reg(static_cast<std::size_t>(reps));
    if (syndrome) {
      regs.n_anc.syndrome = {layout.bit(), layout.bit(), layout.bit()};
      regs.n_anc.work = {layout.bit(), layout.bit()};
    } else {
      regs.n_anc.syndrome = {0, 1, 2};
      regs.n_anc.work = {3, 4};
    }
    regs.control.assign(regs.special.q.begin(), regs.special.q.end());
    options.repetitions = reps;
    options.syndrome_check = syndrome;
  }

  qsim::StateVector initial_state(cplx alpha, cplx beta) const {
    const auto data_amps = Steane::encoded_amplitudes(alpha, beta);
    const auto psi0 = Steane::encoded_amplitudes(kInv, kInv * kOmega);
    std::vector<cplx> amp(std::uint64_t{1} << layout.total(), cplx{0, 0});
    for (unsigned d = 0; d < 128; ++d)
      for (unsigned s = 0; s < 128; ++s)
        amp[(std::uint64_t{s} << 7) | d] = data_amps[d] * psi0[s];
    return qsim::StateVector::from_amplitudes(std::move(amp));
  }

  double output_fidelity(const circuit::SvBackend& b, cplx alpha,
                         cplx beta) const {
    const auto want = Steane::encoded_amplitudes(alpha, kOmega * beta);
    std::vector<std::size_t> qs(regs.data.q.begin(), regs.data.q.end());
    return b.state().subsystem_fidelity(qs, want);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("fig3_tgate", argc, argv);
  bench::banner("E3 / Figure 3: measurement-free FT T gate");
  int failures = 0;

  bench::section("(a) exact logical action (15 qubits, all input classes)");
  {
    struct Input {
      const char* name;
      cplx alpha, beta;
    };
    const Input inputs[] = {
        {"|0>_L", 1.0, 0.0},
        {"|1>_L", 0.0, 1.0},
        {"|+>_L", kInv, kInv},
        {"S+|+>_L", kInv, cplx{0.0, -kInv}},
    };
    for (const auto& in : inputs) {
      TBench b(1, false);
      circuit::Circuit c(b.layout.total());
      ftqc::append_ft_t_gadget(c, codes::steane_code(), b.regs, b.options);
      circuit::SvBackend backend(b.initial_state(in.alpha, in.beta), Rng(3));
      circuit::execute(c, backend);
      const double f = b.output_fidelity(backend, in.alpha, in.beta);
      std::printf("  %-10s T_L fidelity %.12f\n", in.name, f);
      failures += bench::verdict(f > 1.0 - 1e-9, "exact");
    }
  }

  bench::section("(b) the exact Fig. 3 configuration & measured baseline");
  {
    TBench b(3, true);
    circuit::Circuit c(b.layout.total());
    ftqc::append_ft_t_gadget(c, codes::steane_code(), b.regs, b.options);
    circuit::SvBackend backend(b.initial_state(kInv, kInv), Rng(3));
    circuit::execute(c, backend);
    const double f = b.output_fidelity(backend, kInv, kInv);
    std::printf("  3 reps + Hamming check (22 qubits): fidelity %.12f\n", f);
    failures += bench::verdict(f > 1.0 - 1e-9, "exact");

    TBench mb(1, false);
    circuit::Circuit mc(mb.layout.total());
    ftqc::append_measured_t_gadget(mc, codes::steane_code(), mb.regs.data,
                                   mb.regs.special);
    circuit::SvBackend mbackend(mb.initial_state(kInv, kInv), Rng(5));
    circuit::execute(mc, mbackend);
    const double mf = mb.output_fidelity(mbackend, kInv, kInv);
    std::printf("  measurement-based baseline: fidelity %.12f\n", mf);
    failures += bench::verdict(mf > 1.0 - 1e-9,
                               "same output without and with measurement");
  }

  bench::section("(c) noisy Monte-Carlo: measurement-free vs measured");
  {
    // Full FT configuration (3 repetitions + Hamming check, 22 qubits)
    // against the measured baseline, at p BELOW the gadget's pseudo-
    // threshold (~1e-4 per E1) where the quadratic regime holds.  The
    // measurement-free circuit has ~6x the fault locations of the measured
    // one — a constant-factor cost, not an order: the exhaustive evidence
    // is E1/E5; this is the state-vector spot check.
    const std::vector<double> ps = {3e-4, 1e-3};
    const std::uint64_t trials = bench::scaled(12);
    {
      TBench a(3, true), m(1, false);
      circuit::Circuit ca(a.layout.total()), cm(m.layout.total());
      ftqc::append_ft_t_gadget(ca, codes::steane_code(), a.regs, a.options);
      ftqc::append_measured_t_gadget(cm, codes::steane_code(), m.regs.data,
                                     m.regs.special);
      std::printf("  fault sites: measurement-free %zu, measured %zu\n",
                  circuit::enumerate_fault_sites(ca).size(),
                  circuit::enumerate_fault_sites(cm).size());
    }
    std::printf("  %-9s %-22s %-22s\n", "p", "meas-free infidelity",
                "measured infidelity");
    // One state-vector trial of the measurement-free (full FT) or measured
    // arm.  Every object is trial-local, so the driver may run trials on
    // worker threads; the per-trial rng is counter-split from the seed, so
    // the reported means are identical for any --jobs value.
    const auto mf_trial = [&](double p, std::uint64_t, Rng& rng) {
      TBench b(3, true);
      circuit::Circuit c(b.layout.total());
      ftqc::append_ft_t_gadget(c, codes::steane_code(), b.regs, b.options);
      circuit::Circuit verify(b.layout.total());
      const auto ec_anc = b.regs.n_anc.copies[0];
      ftqc::append_measured_verification_ec(verify, codes::steane_code(),
                                            b.regs.data, ec_anc);
      circuit::SvBackend backend(b.initial_state(kInv, kInv), rng.split());
      noise::StochasticInjector inj(noise::NoiseModel::paper_model(p),
                                    rng.split());
      circuit::execute(c, backend, &inj);
      circuit::execute(verify, backend);
      return 1.0 - b.output_fidelity(backend, kInv, kInv);
    };
    const auto mb_trial = [&](double p, std::uint64_t, Rng& rng) {
      TBench b(1, false);
      circuit::Circuit c(b.layout.total());
      ftqc::append_measured_t_gadget(c, codes::steane_code(), b.regs.data,
                                     b.regs.special);
      circuit::Circuit verify(b.layout.total());
      ftqc::append_measured_verification_ec(verify, codes::steane_code(),
                                            b.regs.data,
                                            b.regs.n_anc.copies[0]);
      circuit::SvBackend backend(b.initial_state(kInv, kInv), rng.split());
      noise::StochasticInjector inj(noise::NoiseModel::paper_model(p),
                                    rng.split());
      circuit::execute(c, backend, &inj);
      circuit::execute(verify, backend);
      return 1.0 - b.output_fidelity(backend, kInv, kInv);
    };
    const bench::WallTimer timer;
    double mf_low = 1.0;
    for (std::size_t pi = 0; pi < ps.size(); ++pi) {
      const double p = ps[pi];
      const std::uint64_t seed = 91 + 2 * pi;
      const auto mf_vals = noise::run_trial_values(
          trials, seed,
          [&](std::uint64_t t, Rng& rng) { return mf_trial(p, t, rng); },
          rep.jobs());
      const auto mb_vals = noise::run_trial_values(
          trials, seed + 1,
          [&](std::uint64_t t, Rng& rng) { return mb_trial(p, t, rng); },
          rep.jobs());
      // Fold in index order so the summary statistics are byte-identical
      // to a serial run regardless of worker count.
      RunningStats mf_stats, mb_stats;
      for (double v : mf_vals) mf_stats.add(v);
      for (double v : mb_vals) mb_stats.add(v);
      if (pi == 0) mf_low = mf_stats.mean();
      char key[48];
      std::snprintf(key, sizeof key, "meas_free_infid_p%g", p);
      rep.metric(key, json::Value(mf_stats.mean()));
      std::snprintf(key, sizeof key, "measured_infid_p%g", p);
      rep.metric(key, json::Value(mb_stats.mean()));
      std::printf("  %-9.0e %-22.5f %-22.5f\n", p, mf_stats.mean(),
                  mb_stats.mean());
    }
    rep.metric("mc_wall_ms", json::Value(timer.ms()));
    failures += bench::verdict(
        mf_low < 0.05,
        "below threshold the measurement-free gadget's infidelity is small "
        "(its extra locations are a constant factor)");
  }

  bench::section("(d) sampled single-fault scan of the full configuration");
  {
    // The FT configuration (3 repetitions + Hamming check, 22 qubits): a
    // random sample of single faults, each followed by ideal decoding —
    // none may flip the logical output.
    TBench b(3, true);
    circuit::Circuit c(b.layout.total());
    ftqc::append_ft_t_gadget(c, codes::steane_code(), b.regs, b.options);
    const auto sites = circuit::enumerate_fault_sites(c);
    const std::uint64_t samples = bench::scaled(8);
    Rng rng(123);
    std::size_t fails = 0;
    for (std::uint64_t s = 0; s < samples; ++s) {
      const auto& site = sites[rng.below(sites.size())];
      const auto q = site.qubits[rng.below(site.qubits.size())];
      const auto pl = static_cast<pauli::Pauli>(1 + rng.below(3));
      circuit::PlantedInjector inj;
      inj.plant(site.ordinal,
                pauli::PauliString::single(b.layout.total(), q, pl));
      circuit::SvBackend backend(b.initial_state(kInv, kInv), Rng(7));
      circuit::execute(c, backend, &inj);
      circuit::Circuit verify(b.layout.total());
      ftqc::append_measured_verification_ec(verify, codes::steane_code(),
                                            b.regs.data,
                                            b.regs.n_anc.copies[0]);
      circuit::execute(verify, backend);
      if (b.output_fidelity(backend, kInv, kInv) < 1.0 - 1e-6) ++fails;
    }
    std::printf("  %llu random single faults at 22 qubits: %zu failures\n",
                static_cast<unsigned long long>(samples), fails);
    failures += bench::verdict(fails == 0, "no sampled single fault breaks "
                                           "the logical output");
  }

  return rep.finish(failures);
}
