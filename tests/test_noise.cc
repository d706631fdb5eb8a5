// Tests for the noise module: channel statistics, gap-sampling conformance
// to the per-site Bernoulli model, and Monte-Carlo driver
// reproducibility.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "common/assert.h"
#include "common/rng.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"

namespace eqc::noise {
namespace {

using circuit::Circuit;
using circuit::TabBackend;

TEST(NoiseModel, Factories) {
  EXPECT_EQ(NoiseModel::depolarizing(0.1).channel, Channel::Depolarizing);
  EXPECT_EQ(NoiseModel::paper_model(0.1).channel, Channel::SingleQubitPauli);
  EXPECT_EQ(NoiseModel::biased_z(0.1).channel, Channel::BiasedZ);
  EXPECT_EQ(NoiseModel::biased_z(0.1).z_bias, 0.9);
  EXPECT_EQ(NoiseModel::biased_z(0.1, 1.0).z_bias, 1.0);
}

const circuit::FaultSite kSite012{.arity = 3, .q = {0, 1, 2}};

TEST(SampleError, SingleQubitPauliIsAlwaysWeightOne) {
  Rng rng(11);
  std::map<std::string, int> seen;
  for (int i = 0; i < 3000; ++i) {
    const auto e = to_pauli(
        sample_site_error(Channel::SingleQubitPauli, kSite012.arity, rng),
        kSite012, 3);
    EXPECT_EQ(e.weight(), 1u);
    seen[e.to_string()]++;
  }
  // 3 qubits x 3 Paulis = 9 weight-1 errors, roughly uniform.
  EXPECT_EQ(seen.size(), 9u);
  for (const auto& [key, count] : seen) {
    EXPECT_GT(count, 3000 / 9 / 2) << key;
    EXPECT_LT(count, 3000 / 9 * 2) << key;
  }
}

TEST(SampleError, DepolarizingThreeQubitsCovers63) {
  Rng rng(13);
  std::set<std::string> seen;
  for (int i = 0; i < 20000; ++i)
    seen.insert(
        to_pauli(sample_site_error(Channel::Depolarizing, kSite012.arity, rng),
                 kSite012, 3)
            .to_string());
  EXPECT_EQ(seen.size(), 63u);
}

TEST(StochasticInjector, MeasurementErrorsFlipOutcomes) {
  // p = 1 with X/Y-only noise (both flip a Z readout): a |0> qubit always
  // reads 1.
  Circuit c(1);
  const auto slot = c.measure_z(0);
  NoiseModel m = NoiseModel::biased_z(1.0, 0.0);
  for (int i = 0; i < 20; ++i) {
    StochasticInjector inj(m, Rng(100 + i));
    TabBackend b(1, Rng(2));
    const auto result = circuit::execute(c, b, &inj);
    EXPECT_TRUE(result.cbits[slot]);
  }
}

// --- gap sampling (stream revision 2) ---------------------------------------

using Kind = circuit::FaultSite::Kind;

// 60 sites cycling through every kind, on 1 to 3 qubits.
std::vector<circuit::FaultSite> mixed_sites() {
  std::vector<circuit::FaultSite> sites;
  for (std::uint32_t i = 0; i < 60; ++i) {
    circuit::FaultSite site{.kind = static_cast<Kind>(i % 5)};
    for (std::uint32_t q = 0; q <= i % 3; ++q) site.q[site.arity++] = q;
    site.ordinal = i;
    sites.push_back(site);
  }
  return sites;
}

// Upper 1e-3 quantile of chi-square with `dof` degrees of freedom
// (Wilson-Hilferty).
double chi2_critical(double dof) {
  const double z = 3.090232;  // upper 1e-3 quantile of N(0, 1)
  const double a = 2.0 / (9.0 * dof);
  return dof * std::pow(1.0 - a + z * std::sqrt(a), 3);
}

// At a fixed seed, for_each_fault's per-site hit counts match
// Binomial(trials, p_site) and its per-trial fault counts match the
// distribution of a sum of independent Bernoulli(p_site) by chi-square.
void expect_binomial_conformance(const NoiseModel& model, std::uint64_t seed) {
  const auto sites = mixed_sites();
  const GapSampler sampler(model);
  constexpr std::uint64_t kTrials = 20000;
  std::vector<std::uint64_t> site_hits(sites.size(), 0);
  std::vector<std::uint64_t> count_hist(sites.size() + 1, 0);
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    Rng rng(derive_stream_seed(seed, t));
    std::size_t faults = 0;
    sampler.for_each_fault(sites, rng, [&](std::size_t i, SiteError e) {
      EXPECT_TRUE(e.x != 0 || e.z != 0);
      EXPECT_LT(std::max(e.x, e.z), 1u << sites[i].arity);
      ++site_hits[i];
      ++faults;
    });
    ++count_hist[faults];
  }

  // Per-site hit rates.
  const double p = model.p;
  double chi2 = 0.0;
  int dof = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const double mean = p * kTrials;
    const double d = static_cast<double>(site_hits[i]) - mean;
    chi2 += d * d / (mean * (1.0 - p));
    ++dof;
  }
  EXPECT_LT(chi2, chi2_critical(dof)) << "per-site hit rates, dof " << dof;

  // Per-trial fault counts: the exact pmf by convolution over sites, bins
  // pooled from the tail until each expects at least 5 trials.
  std::vector<double> pmf{1.0};
  for (std::size_t i = 0; i < sites.size(); ++i) {
    std::vector<double> next(pmf.size() + 1, 0.0);
    for (std::size_t k = 0; k < pmf.size(); ++k) {
      next[k] += pmf[k] * (1.0 - p);
      next[k + 1] += pmf[k] * p;
    }
    pmf = std::move(next);
  }
  chi2 = 0.0;
  dof = -1;
  double expected = 0.0;
  double observed = 0.0;
  for (std::size_t k = 0; k < pmf.size(); ++k) {
    expected += pmf[k] * kTrials;
    observed += static_cast<double>(count_hist[k]);
    double tail = 0.0;
    for (std::size_t j = k + 1; j < pmf.size(); ++j) tail += pmf[j] * kTrials;
    if (k + 1 < pmf.size() && (expected < 5.0 || tail < 5.0)) continue;
    chi2 += (observed - expected) * (observed - expected) / expected;
    ++dof;
    expected = observed = 0.0;
  }
  ASSERT_GT(dof, 3);
  EXPECT_LT(chi2, chi2_critical(dof)) << "fault-count histogram, dof " << dof;
}

TEST(GapSampler, PaperModelMatchesBinomialByChiSquare) {
  expect_binomial_conformance(NoiseModel::paper_model(0.05), 101);
}

TEST(GapSampler, EdgeRatesDrawNothing) {
  Rng rng(5);
  Rng untouched = rng;
  EXPECT_EQ(GapSampler(NoiseModel::paper_model(0.0)).gap(rng), UINT64_MAX);
  EXPECT_EQ(GapSampler(NoiseModel::paper_model(1.0)).gap(rng), 0u);
  EXPECT_EQ(rng(), untouched());

  // p = 1 makes every site a fault, each drawing only its error.
  const auto sites = mixed_sites();
  std::size_t hits = 0;
  GapSampler(NoiseModel::paper_model(1.0))
      .for_each_fault(sites, rng, [&](std::size_t i, SiteError) {
        EXPECT_EQ(i, hits);
        ++hits;
      });
  EXPECT_EQ(hits, sites.size());
}

// The fault-free shortcut never changes a walk: gap_at(u, clear_below(n))
// is >= n exactly when floor(log(1 - u) / log1p(-p)) >= n, for every
// 53-bit u within 2^20 steps of the shortcut's threshold and of the exact
// no-fault boundary 1 - u = q^n.
TEST(GapSampler, FirstGapThresholdIsExact) {
  constexpr std::int64_t kSteps = std::int64_t{1} << 20;
  constexpr std::int64_t kMaxK = (std::int64_t{1} << 53) - 1;
  std::uint64_t shortcuts = 0;
  auto check = [&](const NoiseModel& model) {
    const GapSampler sampler(model);
    const double log_q = std::log1p(-model.p);
    for (const std::uint64_t n : {1ull, 555ull, 8943ull, 36297ull,
                                  1000000ull}) {
      const double clear = sampler.clear_below(n);
      const double boundary = std::exp(static_cast<double>(n) * log_q);
      std::uint64_t mismatches = 0;
      for (const double v : {clear, boundary}) {
        const std::int64_t k0 = std::llround((1.0 - v) * 0x1p53);
        const std::int64_t lo = std::max<std::int64_t>(0, k0 - kSteps);
        const std::int64_t hi = std::min(kMaxK, k0 + kSteps);
        for (std::int64_t k = lo; k <= hi; ++k) {
          const double u = static_cast<double>(k) * 0x1p-53;
          const bool exact = std::floor(std::log(1.0 - u) / log_q) >=
                             static_cast<double>(n);
          if (1.0 - u < clear) {
            ++shortcuts;
            if (!exact) ++mismatches;
          }
          if ((sampler.gap_at(u, clear) >= n) != exact) ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "p " << model.p << " n " << n;
    }
  };
  for (const double p : {1e-5, 1e-4, 1e-3, 3e-3, 1e-2, 0.3, 0.9})
    check(NoiseModel::paper_model(p));
  EXPECT_GT(shortcuts, 0u);

  // p = 0 and 1 draw nothing, and the threshold is never taken.
  for (const double p : {0.0, 1.0}) {
    const GapSampler sampler(NoiseModel::paper_model(p));
    EXPECT_EQ(sampler.clear_below(555), 0.0);
    Rng rng(9);
    const Rng untouched = rng;
    EXPECT_EQ(sampler.gap(rng, sampler.clear_below(555)),
              p == 0.0 ? UINT64_MAX : 0u);
    EXPECT_EQ(rng(), Rng(untouched)());
  }

  // Whole walks: with and without the shortcut, the same faults and the
  // same stream state afterwards.
  const auto sites = mixed_sites();
  for (const NoiseModel& model :
       {NoiseModel::paper_model(1e-2), NoiseModel::biased_z(1e-2)}) {
    const GapSampler sampler(model);
    for (std::uint64_t t = 0; t < 4000; ++t) {
      Rng a(derive_stream_seed(17, t));
      Rng b = a;
      std::vector<std::size_t> fa, fb;
      sampler.for_each_fault(sites, sampler.clear_below(sites.size()), a,
                             [&](std::size_t i, SiteError) {
                               fa.push_back(i);
                             });
      sampler.for_each_fault(sites, 0.0, b, [&](std::size_t i, SiteError) {
        fb.push_back(i);
      });
      ASSERT_EQ(fa, fb) << "stream " << t;
      ASSERT_EQ(a(), b()) << "stream " << t;
    }
  }
}

TEST(MonteCarlo, ReproducibleAcrossRuns) {
  auto trial = [](std::uint64_t, Rng& rng) { return rng.bernoulli(0.37); };
  const auto a = run_trials_indexed(500, 99, trial);
  const auto b = run_trials_indexed(500, 99, trial);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_NEAR(a.rate(), 0.37, 0.08);
}

TEST(MonteCarlo, DifferentSeedsDiffer) {
  auto trial = [](std::uint64_t, Rng& rng) { return rng.bernoulli(0.5); };
  const auto a = run_trials_indexed(200, 1, trial);
  const auto b = run_trials_indexed(200, 2, trial);
  EXPECT_NE(a.failures, b.failures);  // overwhelmingly likely
}

// The CI determinism gate: a worker pool must not change any reported
// number.  Per-trial streams are counter-split from (seed, index), and
// shard counters merge by order-free sums, so every jobs value produces a
// byte-identical FailureCounter (compared via the deterministic JSON dump).
TEST(MonteCarlo, ParallelByteIdenticalToSerial) {
  auto trial = [](std::uint64_t, Rng& rng) {
    // Consume a varying amount of the stream so trials are not trivially
    // symmetric under reordering.
    const int draws = 1 + static_cast<int>(rng.below(5));
    bool fail = false;
    for (int i = 0; i < draws; ++i) fail = rng.bernoulli(0.23);
    return fail;
  };
  const auto serial = run_trials_indexed(1000, 77, trial, 1);
  for (unsigned jobs : {2u, 8u}) {
    const auto parallel = run_trials_indexed(1000, 77, trial, jobs);
    EXPECT_EQ(serial.to_json_value().dump(), parallel.to_json_value().dump())
        << "jobs=" << jobs;
  }
}

// Regression for the sequential-master-RNG bug: trial i's outcome is a pure
// function of (seed, i) — invariant to how many trials run and how many
// workers run them.
TEST(MonteCarlo, TrialOutcomeInvariantToTrialCountAndJobs) {
  auto outcome_map = [](std::uint64_t trials, unsigned jobs) {
    std::vector<int> out(static_cast<std::size_t>(trials), -1);
    std::mutex mu;
    run_trials_indexed(
        trials, 5,
        [&](std::uint64_t i, Rng& rng) {
          const bool fail = rng.bernoulli(0.4);
          std::lock_guard<std::mutex> lock(mu);
          out[static_cast<std::size_t>(i)] = fail ? 1 : 0;
          return fail;
        },
        jobs);
    return out;
  };
  const auto base = outcome_map(64, 1);
  const auto longer = outcome_map(256, 1);
  for (std::size_t i = 0; i < base.size(); ++i)
    EXPECT_EQ(base[i], longer[i]) << "trial " << i
                                  << " changed with the trial count";
  for (unsigned jobs : {2u, 8u}) {
    const auto par = outcome_map(256, jobs);
    EXPECT_EQ(longer, par) << "jobs=" << jobs;
  }
}

// Real-valued figures (the Fig. 3 infidelities) ride on the same driver:
// each trial writes its value at its own index and reports no failure.
TEST(MonteCarlo, TrialValuesOrderedAndJobsInvariant) {
  auto values = [](unsigned jobs) {
    std::vector<double> out(100, -1.0);
    const auto counter = run_trials_indexed(
        out.size(), 9,
        [&out](std::uint64_t i, Rng& rng) {
          out[i] = static_cast<double>(i) + rng.uniform();
          return false;
        },
        jobs);
    EXPECT_EQ(counter.trials, out.size());
    EXPECT_EQ(counter.failures, 0u);
    return out;
  };
  const auto serial = values(1);
  ASSERT_EQ(serial.size(), 100u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GE(serial[i], static_cast<double>(i));
    EXPECT_LT(serial[i], static_cast<double>(i) + 1.0);
  }
  EXPECT_EQ(serial, values(4));
}

// Property: injected error count over a known number of sites follows the
// expected binomial mean for every channel.
class ChannelRate : public ::testing::TestWithParam<Channel> {};

TEST_P(ChannelRate, MatchesExpectedMean) {
  Circuit c(2);
  for (int i = 0; i < 300; ++i) c.cnot(0, 1);
  NoiseModel m;
  m.p = 0.05;
  m.channel = GetParam();
  std::size_t total = 0;
  const int reps = 30;
  for (int r = 0; r < reps; ++r) {
    StochasticInjector inj(m, Rng(1000 + r));
    TabBackend b(2, Rng(2));
    circuit::execute(c, b, &inj);
    total += inj.errors_injected();
  }
  const double mean = double(total) / reps;
  EXPECT_NEAR(mean, 300 * 0.05, 4.0);
}

INSTANTIATE_TEST_SUITE_P(AllChannels, ChannelRate,
                         ::testing::Values(Channel::Depolarizing,
                                           Channel::SingleQubitPauli,
                                           Channel::BiasedZ));

// --- resumable trial loop (sweep_trials, one trial per item) ----------------

namespace {

// A cheap deterministic per-index trial: pure function of (seed, index).
bool toy_trial(std::uint64_t, Rng& rng) { return rng.uniform() < 0.125; }

// sweep_trials at width 1, trial i drawing from stream (seed, i) — the
// per-trial layout run_trials_indexed uses, with the resume, cadence and
// stop options exposed.
FailureCounter sweep_toy(std::uint64_t trials, std::uint64_t seed,
                         const McResumableOptions& opt) {
  return sweep_trials(
      trials, 1,
      [seed](unsigned, std::uint64_t i, unsigned) -> std::uint64_t {
        Rng rng(derive_stream_seed(seed, i));
        return toy_trial(i, rng) ? 1 : 0;
      },
      opt);
}

}  // namespace

TEST(MonteCarloResumable, MatchesRunTrialsForAnyJobsValue) {
  const std::uint64_t trials = 5000, seed = 17;
  const auto reference =
      run_trials_indexed(trials, seed, toy_trial, /*jobs=*/1);
  for (unsigned jobs : {1u, 3u}) {
    McResumableOptions opt;
    opt.jobs = jobs;
    const auto result = sweep_toy(trials, seed, opt);
    EXPECT_EQ(result.trials, reference.trials);
    EXPECT_EQ(result.failures, reference.failures);
  }
}

TEST(MonteCarloResumable, StopTokenFlushesAResumablePoint) {
  const std::uint64_t trials = 5000, seed = 17;
  const auto reference = run_trials_indexed(trials, seed, toy_trial, 1);

  std::atomic<bool> stop{false};
  McResumableOptions opt;
  opt.jobs = 2;
  opt.block = 256;
  opt.stop = &stop;
  std::uint64_t blocks_seen = 0;
  opt.on_block = [&](const FailureCounter& c) {
    ++blocks_seen;
    if (c.trials >= 1024) stop.store(true);
  };
  const auto partial = sweep_toy(trials, seed, opt);
  EXPECT_GE(partial.trials, 1024u);
  EXPECT_LT(partial.trials, trials);
  EXPECT_GT(blocks_seen, 0u);

  // Resume from exactly the stopping point -> identical final counter.
  McResumableOptions resume;
  resume.jobs = 3;
  resume.initial = partial;
  const auto resumed = sweep_toy(trials, seed, resume);
  EXPECT_EQ(resumed.trials, reference.trials);
  EXPECT_EQ(resumed.failures, reference.failures);
}

TEST(MonteCarloResumable, ResumeIsByteIdenticalAcrossAnySplitPoint) {
  const std::uint64_t trials = 600, seed = 5;
  const auto reference = run_trials_indexed(trials, seed, toy_trial, 1);
  for (std::uint64_t split : {std::uint64_t{1}, std::uint64_t{137},
                              std::uint64_t{599}, std::uint64_t{600}}) {
    McResumableOptions first;
    first.block = 64;
    std::atomic<bool> stop{false};
    first.stop = &stop;
    first.on_block = [&](const FailureCounter& c) {
      if (c.trials >= split) stop.store(true);
    };
    McResumableOptions rest;
    rest.initial = sweep_toy(trials, seed, first);
    const auto tail = sweep_toy(trials, seed, rest);
    EXPECT_EQ(tail.to_json_value().dump(), reference.to_json_value().dump())
        << "split at " << split;
  }
}

TEST(MonteCarloResumable, PreSetStopRunsNothing) {
  std::atomic<bool> stop{true};
  McResumableOptions opt;
  opt.stop = &stop;
  opt.initial.trials = 40;
  opt.initial.failures = 3;
  const auto result = sweep_toy(1000, 1, opt);
  EXPECT_EQ(result.trials, 40u);
  EXPECT_EQ(result.failures, 3u);
}

TEST(MonteCarloResumable, OnBlockSeesMonotoneCheckpoints) {
  McResumableOptions opt;
  opt.jobs = 2;
  opt.block = 100;
  std::uint64_t last = 0;
  opt.on_block = [&last](const FailureCounter& c) {
    EXPECT_GT(c.trials, last);
    EXPECT_LE(c.failures, c.trials);
    last = c.trials;
  };
  const auto result = sweep_toy(950, 9, opt);
  EXPECT_EQ(result.trials, 950u);
  EXPECT_EQ(last, 950u);
}

// The resume point is the folded counter itself, so a counter that cannot
// have come from a run of this length is refused rather than folded.
TEST(MonteCarloResumable, ResumeCounterMustFitTheRun) {
  McResumableOptions past_the_end;
  past_the_end.initial.trials = 1001;
  EXPECT_THROW((void)sweep_toy(1000, 1, past_the_end), ContractViolation);

  McResumableOptions more_failures_than_trials;
  more_failures_than_trials.initial.trials = 10;
  more_failures_than_trials.initial.failures = 11;
  EXPECT_THROW((void)sweep_toy(1000, 1, more_failures_than_trials),
               ContractViolation);

  // The bounds themselves are valid resume points.
  McResumableOptions at_the_end;
  at_the_end.initial.trials = 1000;
  at_the_end.initial.failures = 1000;
  const auto done = sweep_toy(1000, 1, at_the_end);
  EXPECT_EQ(done.trials, 1000u);
  EXPECT_EQ(done.failures, 1000u);
}

}  // namespace
}  // namespace eqc::noise
