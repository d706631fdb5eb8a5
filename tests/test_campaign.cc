// Tests for the fault-injection campaign engine: determinism under
// parallelism, checkpoint/resume, counterexample shrinking, replay
// artifacts, chaos mode, invariant tripwires and the combinatorics
// underneath.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/experiments.h"
#include "analysis/fault_enum.h"
#include "codes/steane.h"
#include "common/assert.h"
#include "common/checkpoint.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "ftqc/recovery.h"
#include "noise/model.h"

namespace eqc::analysis {
namespace {

using circuit::Circuit;
using codes::Block;
using codes::Steane;

// The Fig. 1 N-gate fault experiment (mirrors test_analysis.cc).
FaultExperiment make_ngate_experiment(bool one, int repetitions,
                                      bool syndrome_check) {
  ftqc::Layout layout;
  const Block source = layout.steane_block();
  auto anc = ftqc::allocate_ngate_ancillas(layout, repetitions);
  const auto out = layout.reg(7);

  FaultExperiment ex;
  ex.num_qubits = layout.total();
  ex.prep = Circuit(layout.total());
  Steane::append_encode_zero(ex.prep, source);
  if (one) Steane::append_logical_x(ex.prep, source);
  ex.gadget = Circuit(layout.total());
  ftqc::NGateOptions opt;
  opt.repetitions = repetitions;
  opt.syndrome_check = syndrome_check;
  ftqc::append_ngate(ex.gadget, source, out, anc, opt);

  ex.failed = [out, source, one](circuit::TabBackend& backend,
                                 const circuit::ExecResult&) {
    int ones = 0;
    for (auto q : out)
      ones += backend.tableau().deterministic_z_value(q) ? 1 : 0;
    const bool decoded = 2 * ones > static_cast<int>(out.size());
    if (decoded != one) return true;
    Rng rng(3);
    Steane::perfect_correct(backend.tableau(), source, rng);
    return Steane::logical_z_expectation(backend.tableau(), source) !=
           (one ? -1.0 : 1.0);
  };
  return ex;
}

// A scratch file that cleans up after itself.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = ::testing::TempDir() + name;
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
};

// --- combinatorics ----------------------------------------------------------

TEST(Campaign, BinomialOrMaxMatchesSmallCases) {
  EXPECT_EQ(binomial_or_max(0, 0), 1u);
  EXPECT_EQ(binomial_or_max(5, 0), 1u);
  EXPECT_EQ(binomial_or_max(5, 6), 0u);
  EXPECT_EQ(binomial_or_max(5, 2), 10u);
  EXPECT_EQ(binomial_or_max(10, 3), 120u);
  EXPECT_EQ(binomial_or_max(52, 5), 2598960u);
  // Symmetric and saturating.
  EXPECT_EQ(binomial_or_max(60, 30), binomial_or_max(60, 30));
  EXPECT_EQ(binomial_or_max(1000, 500), UINT64_MAX);
}

TEST(Campaign, CombinationUnrankIsABijectionInColexOrder) {
  const std::uint64_t n = 7;
  const std::size_t k = 3;
  const std::uint64_t total = binomial_or_max(n, k);
  std::set<std::vector<std::uint32_t>> seen;
  std::vector<std::uint32_t> prev;
  for (std::uint64_t r = 0; r < total; ++r) {
    const auto combo = combination_unrank(r, n, k);
    ASSERT_EQ(combo.size(), k);
    // Strictly ascending members, all in range.
    for (std::size_t i = 0; i < k; ++i) {
      EXPECT_LT(combo[i], n);
      if (i > 0) {
        EXPECT_LT(combo[i - 1], combo[i]);
      }
    }
    // Colex order: ranks sort by reversed-member lexicographic order.
    if (!prev.empty()) {
      std::vector<std::uint32_t> a(prev.rbegin(), prev.rend());
      std::vector<std::uint32_t> b(combo.rbegin(), combo.rend());
      EXPECT_LT(a, b);
    }
    prev = combo;
    seen.insert(combo);
  }
  EXPECT_EQ(seen.size(), total);  // bijection
}

// --- determinism under parallelism ------------------------------------------

TEST(Campaign, ParallelReportIsByteIdenticalToSerial) {
  const auto ex = make_ngate_experiment(true, 3, true);
  CampaignConfig cfg;
  cfg.mode = CampaignMode::KFault;
  cfg.k = 2;
  cfg.budget = 200;
  cfg.sample_seed = 7;

  cfg.jobs = 1;
  const auto serial = run_campaign(ex, cfg);
  cfg.jobs = 4;
  const auto parallel = run_campaign(ex, cfg);

  EXPECT_GT(serial.sets_tested, 0u);
  EXPECT_TRUE(serial.complete);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST(Campaign, ChaosModeIsDeterministicAcrossJobs) {
  const auto ex = make_ngate_experiment(true, 3, true);
  CampaignConfig cfg;
  cfg.mode = CampaignMode::Chaos;
  cfg.budget = 150;
  cfg.chaos_model = noise::NoiseModel::paper_model(0.01);
  cfg.sample_seed = 21;
  cfg.shrink = false;  // chaos sets can be large; keep the test fast

  cfg.jobs = 1;
  const auto serial = run_campaign(ex, cfg);
  cfg.jobs = 3;
  const auto parallel = run_campaign(ex, cfg);

  EXPECT_EQ(serial.sets_tested, 150u);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

// --- checkpoint / resume ----------------------------------------------------

TEST(Campaign, CheckpointKillResumeReachesTheSameReport) {
  const auto ex = make_ngate_experiment(true, 3, true);
  CampaignConfig cfg;
  cfg.mode = CampaignMode::KFault;
  cfg.k = 2;
  cfg.budget = 160;
  cfg.sample_seed = 11;
  cfg.jobs = 2;

  // Reference: one uninterrupted run (no checkpointing involved).
  const auto reference = run_campaign(ex, cfg);
  ASSERT_TRUE(reference.complete);

  // Killed run: stop after 50 items, then resume twice.
  TempFile ck("campaign_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_every = 16;
  cfg.max_items_this_run = 50;
  const auto killed = run_campaign(ex, cfg);
  EXPECT_FALSE(killed.complete);
  EXPECT_LE(killed.sets_tested, 50u);

  cfg.resume = true;
  cfg.max_items_this_run = 60;
  const auto middle = run_campaign(ex, cfg);
  EXPECT_FALSE(middle.complete);
  EXPECT_GT(middle.sets_tested, killed.sets_tested);

  cfg.max_items_this_run = 0;  // run to completion
  const auto resumed = run_campaign(ex, cfg);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.to_json(), reference.to_json());
}

TEST(Campaign, ResumeRejectsAMismatchedCheckpoint) {
  const auto ex = make_ngate_experiment(true, 3, true);
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 40;
  cfg.jobs = 1;
  TempFile ck("campaign_mismatch_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.max_items_this_run = 10;
  (void)run_campaign(ex, cfg);

  cfg.resume = true;
  cfg.budget = 80;  // different campaign -> different fingerprint
  EXPECT_THROW((void)run_campaign(ex, cfg), ContractViolation);
}

// --- chaos sampling ---------------------------------------------------------

// A 3-qubit CNOT chain on which every non-empty fault set "fails": a chaos
// report (shrink off) then lists every sampled set.
FaultExperiment always_failing_experiment() {
  FaultExperiment ex;
  ex.num_qubits = 3;
  ex.prep = Circuit(3);
  ex.gadget = Circuit(3);
  ex.gadget.cnot(0, 1).cnot(1, 2).cnot(0, 2).cnot(2, 1);
  ex.failed = [](circuit::TabBackend&, const circuit::ExecResult&) {
    return true;
  };
  return ex;
}

CampaignConfig chaos_config(const noise::NoiseModel& model) {
  CampaignConfig cfg;
  cfg.mode = CampaignMode::Chaos;
  cfg.budget = 200;
  cfg.chaos_model = model;
  cfg.shrink = false;
  return cfg;
}

TEST(Campaign, ChaosSamplesWithTheModelsZBias) {
  const auto ex = always_failing_experiment();
  for (const double z_bias : {0.0, 1.0}) {
    const auto report =
        run_campaign(ex, chaos_config(noise::NoiseModel::biased_z(0.2, z_bias)));
    std::size_t z = 0;
    std::size_t xy = 0;
    for (const auto& m : report.malignant_sets)
      for (const auto& f : m.faults)
        for (const std::size_t q : f.error.support())
          ++(f.error.get(q) == pauli::Pauli::Z ? z : xy);
    if (z_bias == 1.0) {
      EXPECT_GT(z, 0u);
      EXPECT_EQ(xy, 0u);
    } else {
      EXPECT_EQ(z, 0u);
      EXPECT_GT(xy, 0u);
    }
  }
}

TEST(Campaign, ChaosResumeRejectsAnotherChannelOrZBias) {
  const auto ex = always_failing_experiment();
  TempFile ck("campaign_chaos_model_ck.json");
  const noise::NoiseModel base = noise::NoiseModel::biased_z(0.1, 0.9);
  CampaignConfig cfg = chaos_config(base);
  cfg.checkpoint_path = ck.path;
  cfg.max_items_this_run = 50;
  (void)run_campaign(ex, cfg);
  cfg.resume = true;
  cfg.max_items_this_run = 0;

  CampaignConfig other_bias = cfg;
  other_bias.chaos_model.z_bias = 0.5;
  EXPECT_THROW((void)run_campaign(ex, other_bias), ContractViolation);
  CampaignConfig other_channel = cfg;
  other_channel.chaos_model.channel = noise::Channel::SingleQubitPauli;
  EXPECT_THROW((void)run_campaign(ex, other_channel), ContractViolation);

  EXPECT_TRUE(run_campaign(ex, cfg).complete);
}

// --- checkpoint robustness --------------------------------------------------

namespace {

std::string slurp_file(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

void spit_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

// Produces a mid-campaign checkpoint file and the campaign config that
// wrote it (small: k=1 keeps items cheap and the malignant list empty).
CampaignConfig checkpointed_campaign(const FaultExperiment& ex,
                                     const std::string& path) {
  CampaignConfig cfg;
  cfg.mode = CampaignMode::KFault;
  cfg.k = 1;
  cfg.budget = 60;
  cfg.checkpoint_path = path;
  cfg.checkpoint_every = 8;
  cfg.max_items_this_run = 30;
  const auto partial = run_campaign(ex, cfg);
  EXPECT_FALSE(partial.complete);
  cfg.max_items_this_run = 0;
  cfg.resume = true;
  return cfg;
}

}  // namespace

TEST(Campaign, CheckpointTruncatedAtEveryByteOffsetThrowsTheDistinctError) {
  const auto ex = make_ngate_experiment(true, 3, true);
  TempFile ck("campaign_truncate_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  const std::string original = slurp_file(ck.path);
  ASSERT_FALSE(original.empty());

  // A strict prefix of a JSON document never parses, so every truncation
  // point must surface as CheckpointCorrupt — never a crash, never a
  // ContractViolation, never a silent wrong resume.
  for (std::size_t len = 0; len < original.size(); ++len) {
    spit_file(ck.path, original.substr(0, len));
    EXPECT_THROW((void)run_campaign(ex, cfg), CheckpointCorrupt)
        << "truncated at byte " << len;
  }
  spit_file(ck.path, original);
  const auto resumed = run_campaign(ex, cfg);
  EXPECT_TRUE(resumed.complete);
}

TEST(Campaign, CheckpointSingleByteCorruptionNeverCrashes) {
  const auto ex = make_ngate_experiment(true, 3, true);
  TempFile ck("campaign_flip_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  const std::string original = slurp_file(ck.path);

  Rng rng(77);
  for (int i = 0; i < 100; ++i) {
    const std::size_t pos = rng.below(original.size());
    std::string damaged = original;
    damaged[pos] = static_cast<char>(rng.below(256));
    if (damaged == original) continue;
    spit_file(ck.path, damaged);
    std::remove((ck.path + ".corrupt").c_str());
    // Allowed outcomes: a report (the flip was harmless or quarantined
    // away under fresh_on_corrupt) or a ContractViolation (the flip
    // landed in the fingerprint, indistinguishable from a foreign
    // checkpoint).  Anything else is a bug.
    CampaignConfig tolerant = cfg;
    tolerant.fresh_on_corrupt = true;
    try {
      (void)run_campaign(ex, tolerant);
    } catch (const ContractViolation&) {
    }
  }
}

TEST(Campaign, RevisionOneCheckpointIsRefusedAndNeverResumed) {
  const auto ex = make_ngate_experiment(true, 3, true);
  TempFile ck("campaign_rev1_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  const std::string current = slurp_file(ck.path);

  // Stream revision 1 wrote the fingerprint without the chaos channel, the
  // z bias and the stream revision.
  const std::string rev2_fields = ",\"chaos_channel\"";
  const std::string rev2_end =
      "\"stream_revision\":" + std::to_string(noise::kStreamRevision);
  const std::size_t from = current.find(rev2_fields);
  const std::size_t to = current.find(rev2_end);
  ASSERT_NE(from, std::string::npos);
  ASSERT_NE(to, std::string::npos);
  std::string rev1 = current;
  rev1.erase(from, to + rev2_end.size() - from);
  ASSERT_EQ(rev1.find("stream_revision"), std::string::npos);

  // Refused as a foreign checkpoint, not as a damaged one: even a caller
  // that tolerates corruption neither quarantines nor resumes it.
  for (const std::string& text :
       {rev1, std::string(current).replace(to + rev2_end.size() - 1, 1, "1")}) {
    spit_file(ck.path, text);
    CampaignConfig tolerant = cfg;
    tolerant.fresh_on_corrupt = true;
    EXPECT_THROW((void)run_campaign(ex, tolerant), ContractViolation);
    EXPECT_EQ(slurp_file(ck.path), text);
    EXPECT_TRUE(slurp_file(ck.path + ".corrupt").empty());
  }
}

TEST(Campaign, FreshOnCorruptQuarantinesAndReachesTheReferenceReport) {
  const auto ex = make_ngate_experiment(true, 3, true);

  CampaignConfig clean;
  clean.mode = CampaignMode::KFault;
  clean.k = 1;
  clean.budget = 60;
  const auto reference = run_campaign(ex, clean);

  TempFile ck("campaign_fresh_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  const std::string original = slurp_file(ck.path);
  spit_file(ck.path, original.substr(0, original.size() / 2));

  // Without the fallback: the distinct error.
  EXPECT_THROW((void)run_campaign(ex, cfg), CheckpointCorrupt);

  // With it: quarantine + fresh start + the exact same final report
  // (determinism makes the fallback safe).
  cfg.fresh_on_corrupt = true;
  const auto recovered = run_campaign(ex, cfg);
  EXPECT_TRUE(recovered.complete);
  EXPECT_EQ(recovered.to_json(), reference.to_json());
  EXPECT_FALSE(slurp_file(ck.path + ".corrupt").empty());
  std::remove((ck.path + ".corrupt").c_str());
}

// --- shrinking and replay ---------------------------------------------------

TEST(Campaign, ShrunkMalignantSetsAreOneMinimalAndReplayable) {
  const auto ex = make_ngate_experiment(true, 3, true);
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 300;
  cfg.sample_seed = 5;
  cfg.jobs = 4;
  const auto report = run_campaign(ex, cfg);
  ASSERT_GT(report.malignant, 0u) << "budget too small to find a pair";

  for (const auto& m : report.malignant_sets) {
    EXPECT_TRUE(m.minimal);
    // Replays to failure...
    EXPECT_TRUE(run_with_faults(ex, m.faults));
    // ...and removing ANY single fault no longer fails (1-minimality).
    for (std::size_t drop = 0; drop < m.faults.size(); ++drop) {
      std::vector<Fault> fewer;
      for (std::size_t i = 0; i < m.faults.size(); ++i)
        if (i != drop) fewer.push_back(m.faults[i]);
      if (fewer.empty()) continue;
      EXPECT_FALSE(run_with_faults(ex, fewer));
    }
  }
}

TEST(Campaign, ReplayArtifactRoundTripsThroughJson) {
  const auto ex = make_ngate_experiment(true, 3, true);
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 300;
  cfg.sample_seed = 5;
  cfg.jobs = 4;
  const auto report = run_campaign(ex, cfg);
  ASSERT_GT(report.malignant, 0u);

  const auto sets = parse_fault_sets(report.to_json(), ex.num_qubits);
  ASSERT_EQ(sets.size(), report.malignant_sets.size());
  for (std::size_t i = 0; i < sets.size(); ++i) {
    ASSERT_EQ(sets[i].size(), report.malignant_sets[i].faults.size());
    for (std::size_t j = 0; j < sets[i].size(); ++j) {
      EXPECT_EQ(sets[i][j].ordinal, report.malignant_sets[i].faults[j].ordinal);
      EXPECT_EQ(sets[i][j].error.to_string(),
                report.malignant_sets[i].faults[j].error.to_string());
    }
    EXPECT_TRUE(run_with_faults(ex, sets[i]));
  }
}

// --- exhaustive campaigns ---------------------------------------------------

TEST(Campaign, ExhaustiveSingleFaultCampaignMatchesRunSingleFaults) {
  const auto ex = make_ngate_experiment(true, 1, true);  // NOT fault tolerant
  const auto single = run_single_faults(ex);
  ASSERT_GT(single.failures, 0u);

  CampaignConfig cfg;
  cfg.k = 1;
  cfg.budget = 0;  // exhaustive
  cfg.jobs = 4;
  cfg.shrink = false;
  const auto report = run_campaign(ex, cfg);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.sets_tested, single.faults_tested);
  EXPECT_EQ(report.malignant, single.failures);
}

TEST(Campaign, ExhaustivePairCampaignSkipsSameSiteCollisions) {
  // A tiny universe where C(n, 2) is fully enumerable: the campaign must
  // test exactly the pairs on DISTINCT sites (same-site ranks skipped).
  FaultExperiment ex;
  ex.num_qubits = 3;
  ex.prep = Circuit(3);
  ex.gadget = Circuit(3);
  ex.gadget.h(0).cnot(0, 1).cnot(1, 2).h(2);
  ex.failed = [](circuit::TabBackend&, const circuit::ExecResult&) {
    return false;
  };

  const auto faults = enumerate_single_faults(ex);
  const std::uint64_t n = faults.size();
  std::uint64_t same_site = 0;
  for (std::uint64_t i = 0; i < n;) {
    std::uint64_t j = i;
    while (j < n && faults[j].ordinal == faults[i].ordinal) ++j;
    const std::uint64_t m = j - i;
    same_site += m * (m - 1) / 2;
    i = j;
  }
  const std::uint64_t valid = n * (n - 1) / 2 - same_site;

  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 0;  // exhaustive over C(n, 2) ranks
  cfg.jobs = 2;
  cfg.shrink = false;
  const auto report = run_campaign(ex, cfg);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_EQ(report.sets_tested, valid);  // same-site pairs skipped, not counted
}

// --- tripwires --------------------------------------------------------------

TEST(Campaign, TripwireAttributesTheFirstCodespaceViolation) {
  ftqc::Layout layout;
  const Block source = layout.steane_block();
  auto ex = make_ngate_experiment(true, 3, true);

  TripwireOptions tripwire;
  tripwire.violated = [source](circuit::TabBackend& b) {
    return !Steane::block_in_codespace(b.tableau(), source);
  };
  tripwire.probe_after = calibrate_probe_sites(ex, tripwire.violated);
  ASSERT_FALSE(tripwire.probe_after.empty());

  // Fault-free, a calibrated tripwire never trips.
  {
    const auto clean = run_with_faults_probed(ex, {}, tripwire);
    EXPECT_FALSE(clean.failed);
    EXPECT_FALSE(clean.tripped);
  }

  // Find a malignant pair, then replay it under the tripwire.
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 300;
  cfg.sample_seed = 5;
  cfg.jobs = 4;
  cfg.tripwire = tripwire;
  const auto report = run_campaign(ex, cfg);
  ASSERT_GT(report.malignant, 0u);

  std::size_t tripped = 0;
  for (const auto& m : report.malignant_sets) {
    if (!m.tripped) continue;
    ++tripped;
    // The trip site is a calibrated probe point, at or after the first
    // injected fault (the prefix before it is identical to the fault-free
    // run, which holds the invariant at every probe point).
    EXPECT_TRUE(std::binary_search(tripwire.probe_after.begin(),
                                   tripwire.probe_after.end(),
                                   m.trip_ordinal));
    std::size_t first_fault = m.faults.front().ordinal;
    for (const auto& f : m.faults)
      first_fault = std::min(first_fault, f.ordinal);
    EXPECT_GE(m.trip_ordinal, first_fault);
  }
  EXPECT_GT(tripped, 0u) << "no malignant set tripped the codespace probe";
}

// --- config validation ------------------------------------------------------

TEST(Campaign, RejectsMisconfiguredCampaigns) {
  const auto ex = make_ngate_experiment(true, 3, true);
  CampaignConfig cfg;
  cfg.k = 0;
  EXPECT_THROW((void)run_campaign(ex, cfg), ContractViolation);

  CampaignConfig chaos;
  chaos.mode = CampaignMode::Chaos;
  chaos.budget = 0;  // chaos needs a trial count
  EXPECT_THROW((void)run_campaign(ex, chaos), ContractViolation);
}

TEST(Campaign, Rm15RecoverySampledSingleFaultsAreBenign) {
  // Regression: the ancilla burst repair used a single-position one-hot
  // decode, which only covers the syndrome space of a PERFECT code; RM15
  // encoder bursts with unmatched syndromes survived it and landed on the
  // data as uncorrectable X bursts through the control-direction
  // transversal CNOT.  With the information-set repair every sampled
  // single fault must be benign.
  GadgetSpec spec;
  spec.gadget = "recovery";
  spec.scenario.code = "rm15";
  spec.scenario.repetition_k = 1;
  spec.seed = 7;
  const auto built = build_gadget_experiment(spec);

  CampaignConfig cfg;
  cfg.k = 1;
  cfg.budget = 300;
  cfg.jobs = 4;
  cfg.sample_seed = 33;
  cfg.shrink = false;
  const auto report = run_campaign(built.ex, cfg);
  EXPECT_EQ(report.sets_tested, 300u);
  EXPECT_EQ(report.malignant, 0u);
}

}  // namespace
}  // namespace eqc::analysis
