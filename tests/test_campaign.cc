// Tests for the fault-injection campaign engine: determinism under
// parallelism, checkpoint/resume, counterexample shrinking, replay
// artifacts, chaos mode, codespace tripwires and the combinatorics
// underneath.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/experiments.h"
#include "analysis/fault_enum.h"
#include "analysis/frame_oracle.h"
#include "circuit/execute.h"
#include "common/assert.h"
#include "common/checkpoint.h"
#include "frame/frames.h"
#include "noise/model.h"
#include "obs/metrics.h"
#include "pauli/pauli_string.h"
#include "reference_walk.h"

namespace eqc::analysis {
namespace {

using circuit::Circuit;

// The Fig. 1 N-gate fault experiment (Steane, parity check on): encode
// `input` noiselessly, run 2k+1 repetitions under injection, fail if the
// majority-decoded classical value is wrong or the quantum source is not
// correctable.
FaultExperiment ngate_experiment(LogicalInput input, int k = 1) {
  GadgetSpec spec;
  spec.scenario.repetition_k = k;
  spec.input = input;
  return build_gadget_experiment(spec).ex;
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

// A kill right after a flush: the campaign stops at its first checkpoint
// at or past `items` folded items (flushes land every
// cfg.checkpoint_every items), leaving the progress log a killed process
// would.
CampaignReport run_until(const FaultExperiment& ex, CampaignConfig cfg,
                         std::uint64_t items) {
  std::atomic<bool> stop{false};
  cfg.stop = &stop;
  cfg.on_progress = [&stop, items](const CampaignProgress& p) {
    if (p.items_done >= items) stop.store(true);
  };
  return run_campaign(ex, cfg);
}

// A trials-engine report restated under the frames engine: every other
// byte of the two reports must agree.
std::string as_frames_report(CampaignReport report) {
  EXPECT_EQ(report.engine, "trials");
  report.engine = kPlantedFramesEngine;
  return report.to_json();
}

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
  const auto ex = ngate_experiment(LogicalInput::One);
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
  const auto ex = ngate_experiment(LogicalInput::One);
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

// --- verdict engines ---------------------------------------------------------

// Frame verdicts (the default) and per-trial verdicts write the same report
// bytes but for the engine each states: k-fault with shrink and tripwire,
// and chaos.
TEST(Campaign, FrameVerdictsMatchPerTrialVerdicts) {
  const BuiltGadget built = build_gadget_experiment(GadgetSpec{});
  const FaultExperiment& ex = built.ex;
  CampaignConfig kfault;
  kfault.k = 2;
  kfault.budget = 300;
  kfault.sample_seed = 5;
  kfault.jobs = 2;
  kfault.tripwire = codespace_tripwire(built);
  CampaignConfig chaos;
  chaos.mode = CampaignMode::Chaos;
  chaos.budget = 100;
  chaos.chaos_model = noise::NoiseModel::depolarizing(0.01);
  chaos.sample_seed = 8;
  chaos.shrink = false;
  for (CampaignConfig cfg : {kfault, chaos}) {
    ASSERT_EQ(cfg.engine, "frames");
    const auto frames = run_campaign(ex, cfg);
    cfg.engine = "trials";
    const auto trials = run_campaign(ex, cfg);
    EXPECT_GT(trials.malignant, 0u);
    EXPECT_EQ(frames.to_json(), as_frames_report(trials));
  }
}

// A gadget whose sets drive a lane through a deviation the frame model
// cannot absorb (an X fault on the control of a classically controlled S
// whose target is in |+>): those items fall back to the per-trial replay,
// and the report is byte-identical to an all-per-trial campaign but for the
// engine it states.
TEST(Campaign, FrameUnsupportedSetsFallBackToPerTrialVerdicts) {
  FaultExperiment ex;
  ex.num_qubits = 2;
  ex.prep = Circuit(2);
  ex.prep.h(0);
  ex.gadget = Circuit(2);
  ex.gadget.x(1);
  ex.gadget.cs(1, 0);
  ex.failed = [](circuit::TabBackend& b, const circuit::ExecResult&) {
    return b.tableau().expectation_pauli(
               pauli::PauliString::single(2, 0, pauli::Pauli::Y)) != 1.0;
  };
  // The unabsorbable deviation really is in the universe.
  const frame::FrameProgram prog = make_frame_program(ex);
  frame::FrameBatch batch(prog);
  EXPECT_THROW(batch.run_planted({{frame::PlantedFault{
                   0, pauli::PauliString::single(2, 1, pauli::Pauli::X)}}}),
               frame::FrameUnsupported);

  for (std::size_t k : {1u, 2u}) {
    CampaignConfig cfg;
    cfg.k = k;
    cfg.budget = 0;  // exhaustive
    cfg.jobs = 2;
    const auto frames = run_campaign(ex, cfg);
    cfg.engine = "trials";
    const auto trials = run_campaign(ex, cfg);
    EXPECT_TRUE(trials.exhaustive);
    EXPECT_GT(trials.malignant, 0u) << "k = " << k;
    EXPECT_EQ(frames.to_json(), as_frames_report(trials)) << "k = " << k;
  }
}

// A report states its estimator once: a fixed-n count with a Wilson 95%
// interval, the engine that judged the sets and the stream revision.
TEST(Campaign, ReportStatesItsEstimator) {
  const auto ex = ngate_experiment(LogicalInput::One);
  CampaignConfig cfg;
  cfg.k = 1;
  cfg.budget = 20;
  for (const char* engine : {"frames", "trials"}) {
    cfg.engine = engine;
    const json::Value doc =
        json::Value::parse(run_campaign(ex, cfg).to_json());
    EXPECT_EQ(doc.at("version").as_u64(), 2u);
    EXPECT_EQ(doc.find("stream_revision"), nullptr);
    EXPECT_EQ(doc.at("estimator").dump(),
              estimator_json(cfg.engine == "trials" ? "trials"
                                                    : kPlantedFramesEngine,
                             noise::kStreamRevision)
                  .dump());
  }
}

// --- checkpoint / resume ----------------------------------------------------

TEST(Campaign, CheckpointKillResumeReachesTheSameReport) {
  const auto ex = ngate_experiment(LogicalInput::One);
  CampaignConfig cfg;
  cfg.mode = CampaignMode::KFault;
  cfg.k = 2;
  cfg.budget = 160;
  cfg.sample_seed = 11;
  cfg.jobs = 2;

  // Reference: one uninterrupted run (no checkpointing involved).
  const auto reference = run_campaign(ex, cfg);
  ASSERT_TRUE(reference.complete);

  // Killed run: stopped at the flush after 48 items, resumed and stopped
  // again at 112, then resumed to completion.
  TempFile ck("campaign_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_every = 16;
  const auto killed = run_until(ex, cfg, 48);
  EXPECT_FALSE(killed.complete);
  EXPECT_EQ(killed.sets_tested, 48u);

  cfg.resume = true;
  const auto middle = run_until(ex, cfg, 112);
  EXPECT_FALSE(middle.complete);
  EXPECT_EQ(middle.sets_tested, 112u);

  const auto resumed = run_campaign(ex, cfg);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.to_json(), reference.to_json());
}

TEST(Campaign, ResumeRejectsAMismatchedCheckpoint) {
  const auto ex = ngate_experiment(LogicalInput::One);
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 40;
  cfg.jobs = 1;
  TempFile ck("campaign_mismatch_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_every = 8;
  EXPECT_FALSE(run_until(ex, cfg, 8).complete);

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
  cfg.checkpoint_every = 10;
  EXPECT_FALSE(run_until(ex, cfg, 50).complete);
  cfg.resume = true;

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

// The records of a campaign progress log: the first carries the header.
std::vector<json::Value> log_records(const std::string& path) {
  return Journal::load(path);
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
  const auto partial = run_until(ex, cfg, 30);
  EXPECT_FALSE(partial.complete);
  cfg.resume = true;
  return cfg;
}

}  // namespace

TEST(Campaign, CheckpointSingleByteCorruptionNeverCrashes) {
  const auto ex = ngate_experiment(LogicalInput::One);
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
  const auto ex = ngate_experiment(LogicalInput::One);
  TempFile ck("campaign_rev1_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  const std::string current = slurp_file(ck.path);

  // Stream revision 1 wrote the fingerprint without the chaos channel, the
  // z bias and the stream revision: rewrite the log's header record so.
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

TEST(Campaign, CheckpointFingerprintNamesEachFaultModel) {
  // Each channel's fault universe records its own name; the paper model
  // keeps "single", so paper-model checkpoints are unchanged.
  const std::pair<noise::Channel, const char*> models[] = {
      {noise::Channel::SingleQubitPauli, "single"},
      {noise::Channel::Depolarizing, "depolarizing"},
      {noise::Channel::BiasedZ, "single-z"}};
  for (const auto& [channel, name] : models) {
    auto ex = ngate_experiment(LogicalInput::One);
    ex.channel = channel;
    TempFile ck("campaign_model_ck.json");
    (void)checkpointed_campaign(ex, ck.path);
    const json::Value header = log_records(ck.path).at(0);
    EXPECT_EQ(header.at("fingerprint").at("fault_model").as_string(), name);
  }
}

TEST(Campaign, BiasedZCheckpointNamedDepolarizingIsRefused) {
  // Earlier builds wrote the biased-z ("single-z") fault universe as
  // "depolarizing"; such a checkpoint belongs to no campaign today.
  auto ex = ngate_experiment(LogicalInput::One);
  ex.channel = noise::Channel::BiasedZ;
  TempFile ck("campaign_biased_z_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  std::string text = slurp_file(ck.path);
  const std::string own = "\"fault_model\":\"single-z\"";
  const std::size_t at = text.find(own);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, own.size(), "\"fault_model\":\"depolarizing\"");
  spit_file(ck.path, text);
  cfg.fresh_on_corrupt = true;
  EXPECT_THROW((void)run_campaign(ex, cfg), ContractViolation);
  EXPECT_EQ(slurp_file(ck.path), text);
}

TEST(Campaign, FreshOnCorruptQuarantinesAndReachesTheReferenceReport) {
  const auto ex = ngate_experiment(LogicalInput::One);

  CampaignConfig clean;
  clean.mode = CampaignMode::KFault;
  clean.k = 1;
  clean.budget = 60;
  const auto reference = run_campaign(ex, clean);

  TempFile ck("campaign_fresh_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  // Interior damage — the first record's closing brace — is beyond the
  // crash model (a cut only ever tears the last record).
  std::string damaged = slurp_file(ck.path);
  const std::size_t first_end = damaged.find('\n');
  ASSERT_NE(first_end, std::string::npos);
  ASSERT_LT(first_end + 1, damaged.size());
  damaged[first_end - 1] = 'x';
  spit_file(ck.path, damaged);

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

// Whole-document checkpoints of earlier builds end without a newline, so
// they would pass for a torn tail; they are refused as corrupt instead of
// being read as an empty log and overwritten.
void expect_old_document_refused(const FaultExperiment& ex,
                                 CampaignConfig cfg, const std::string& path,
                                 const std::string& document) {
  CampaignConfig clean;
  clean.mode = CampaignMode::KFault;
  clean.k = 1;
  clean.budget = 60;
  const auto reference = run_campaign(ex, clean);

  spit_file(path, document);
  EXPECT_THROW((void)run_campaign(ex, cfg), CheckpointCorrupt);
  EXPECT_EQ(slurp_file(path), document);

  cfg.fresh_on_corrupt = true;
  const auto recovered = run_campaign(ex, cfg);
  EXPECT_TRUE(recovered.complete);
  EXPECT_EQ(recovered.to_json(), reference.to_json());
  EXPECT_EQ(slurp_file(path + ".corrupt"), document);
  std::remove((path + ".corrupt").c_str());
}

TEST(Campaign, SchemaTwoShardCheckpointIsRefusedAsCorrupt) {
  const auto ex = ngate_experiment(LogicalInput::One);
  // The same progress as schema 2 stored it: num_shards in the
  // fingerprint and one cursor per stride-16 shard.
  TempFile ck("campaign_schema2_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  const auto records = log_records(ck.path);
  const json::Value& header = records.front();
  const std::uint64_t next = records.back().at("next_index").as_u64();
  ASSERT_GT(next, 0u);
  json::Object fingerprint;
  for (const auto& [key, value] : header.at("fingerprint").as_object()) {
    fingerprint.emplace_back(key, value);
    if (key == "total_items") fingerprint.emplace_back("num_shards", 16);
  }
  json::Array shards;
  for (std::uint64_t shard = 0; shard < 16; ++shard) {
    const std::uint64_t cursor = next > shard ? (next - shard + 15) / 16 : 0;
    json::Object st;
    st.emplace_back("cursor", cursor);
    st.emplace_back("tested", cursor);
    st.emplace_back("malignant", 0);
    st.emplace_back("stopped_early", false);
    shards.emplace_back(std::move(st));
  }
  json::Object doc;
  doc.emplace_back("kind", header.at("kind"));
  doc.emplace_back("schema_version", 2);
  doc.emplace_back("fingerprint", json::Value(std::move(fingerprint)));
  doc.emplace_back("shards", std::move(shards));
  doc.emplace_back("malignant_sets", json::Array{});
  expect_old_document_refused(ex, cfg, ck.path,
                              json::Value(std::move(doc)).dump());
}

// The progress of the log at `path` as schema 3 stored it: one whole JSON
// document.
std::string schema_three_document(const std::string& path) {
  const auto records = log_records(path);
  const json::Value& last = records.back();
  json::Object doc;
  doc.emplace_back("kind", records.front().at("kind"));
  doc.emplace_back("schema_version", 3);
  doc.emplace_back("fingerprint", records.front().at("fingerprint"));
  doc.emplace_back("next_index", last.at("next_index"));
  doc.emplace_back("tested", last.at("tested"));
  doc.emplace_back("malignant", last.at("malignant"));
  doc.emplace_back("malignant_sets", json::Array{});
  return json::Value(std::move(doc)).dump();
}

TEST(Campaign, SchemaThreeDocumentCheckpointIsRefusedAsCorrupt) {
  const auto ex = ngate_experiment(LogicalInput::One);
  TempFile ck("campaign_schema3_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  expect_old_document_refused(ex, cfg, ck.path,
                              schema_three_document(ck.path));
}

TEST(Campaign, CheckpointTruncatedAtEveryByteOffsetThrowsTheDistinctError) {
  const auto ex = ngate_experiment(LogicalInput::One);
  CampaignConfig clean;
  clean.mode = CampaignMode::KFault;
  clean.k = 1;
  clean.budget = 60;
  const auto reference = run_campaign(ex, clean);

  // A whole-document checkpoint of an earlier build, cut anywhere: a cut
  // progress log resumes from its last complete record, but a cut document
  // must never pass for one.  Only the cuts that are also the start of a
  // record line ("", "{", "{\"") are a torn first flush and start afresh.
  TempFile ck("campaign_truncate_ck.json");
  CampaignConfig cfg = checkpointed_campaign(ex, ck.path);
  const std::string original = schema_three_document(ck.path);
  const std::string record_start = "{\"seq\":";
  ASSERT_NE(original.substr(0, record_start.size()), record_start);
  for (std::size_t len = 0; len < original.size(); ++len) {
    const std::string cut = original.substr(0, len);
    spit_file(ck.path, cut);
    if (record_start.compare(0, len, cut) == 0) {
      const auto fresh = run_campaign(ex, cfg);
      EXPECT_TRUE(fresh.complete) << "truncated at byte " << len;
      EXPECT_EQ(fresh.to_json(), reference.to_json())
          << "truncated at byte " << len;
      continue;
    }
    EXPECT_THROW((void)run_campaign(ex, cfg), CheckpointCorrupt)
        << "truncated at byte " << len;
    EXPECT_EQ(slurp_file(ck.path), cut) << "truncated at byte " << len;
  }
}

TEST(Campaign, CheckpointStoresOneFoldedPrefix) {
  const auto ex = ngate_experiment(LogicalInput::One);
  TempFile ck("campaign_prefix_ck.json");
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 80;
  cfg.sample_seed = 5;
  cfg.jobs = 3;
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_every = 10;
  const auto partial = run_until(ex, cfg, 50);
  EXPECT_FALSE(partial.complete);

  const auto records = log_records(ck.path);
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().at("schema_version").as_u64(), 4u);
  EXPECT_EQ(records.front().at("fingerprint").find("num_shards"), nullptr);
  const json::Value& last = records.back();
  EXPECT_EQ(last.find("shards"), nullptr);
  // A session stopped at a flush folds exactly the prefix it flushed.
  EXPECT_EQ(last.at("next_index").as_u64(), 50u);
  EXPECT_EQ(last.at("tested").as_u64(), partial.sets_tested);
  EXPECT_EQ(last.at("malignant").as_u64(), partial.malignant);
  for (const auto& rec : records)
    for (const auto& m : rec.at("malignant_sets").as_array())
      EXPECT_LT(m.at("index").as_u64(), 50u);
}

// Each flush serializes only the sets folded since the previous one, so
// even a flush per item stores every malignant set exactly once.
TEST(Campaign, ProgressLogHoldsEachMalignantSetOnce) {
  const auto ex = ngate_experiment(LogicalInput::One);
  TempFile ck("campaign_each_once_ck.json");
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 200;
  cfg.sample_seed = 5;
  cfg.jobs = 2;
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_every = 1;
  const auto report = run_campaign(ex, cfg);
  ASSERT_GT(report.malignant, 0u);

  const auto records = log_records(ck.path);
  EXPECT_EQ(records.back().at("next_index").as_u64(), 200u);
  std::vector<std::uint64_t> logged;
  for (const auto& rec : records)
    for (const auto& m : rec.at("malignant_sets").as_array())
      logged.push_back(m.at("index").as_u64());
  std::vector<std::uint64_t> reported;
  for (const auto& m : report.malignant_sets) reported.push_back(m.index);
  EXPECT_EQ(logged, reported);
}

// obs "checkpoint.writes" (read by perfbench as common.checkpoint.writes)
// counts log appends: one per flush record, never a silent zero.
TEST(Campaign, CheckpointWritesCountEveryFlush) {
  const auto ex = ngate_experiment(LogicalInput::One);
  TempFile ck("campaign_writes_ck.json");
  CampaignConfig cfg;
  cfg.k = 2;
  cfg.budget = 100;
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_every = 16;
  obs::Counter& writes = obs::counter("checkpoint.writes", obs::Det::Runtime);
  const std::uint64_t before = writes.value();
  (void)run_campaign(ex, cfg);
  const std::uint64_t flushes = log_records(ck.path).size();
  EXPECT_EQ(flushes, 7u);  // every 16 items up to 96, then the end at 100
  EXPECT_EQ(writes.value() - before, flushes);
}

// --- shrinking and replay ---------------------------------------------------

TEST(Campaign, ShrunkMalignantSetsAreOneMinimalAndReplayable) {
  const auto ex = ngate_experiment(LogicalInput::One);
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
  const auto ex = ngate_experiment(LogicalInput::One);
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
  const auto ex = ngate_experiment(LogicalInput::One, 0);  // NOT fault tolerant
  const auto faults = enumerate_single_faults(ex);
  std::uint64_t failures = 0;
  for (const auto& f : faults) failures += run_with_faults(ex, {f}) ? 1 : 0;
  ASSERT_GT(failures, 0u);

  CampaignConfig cfg;
  cfg.k = 1;
  cfg.budget = 0;  // exhaustive
  cfg.jobs = 4;
  cfg.shrink = false;
  const auto report = run_campaign(ex, cfg);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.sets_tested, faults.size());
  EXPECT_EQ(report.malignant, failures);
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
  const BuiltGadget built = build_gadget_experiment(GadgetSpec{});
  const FaultExperiment& ex = built.ex;
  const TripwireOptions tripwire = codespace_tripwire(built);
  ASSERT_TRUE(tripwire.enabled());
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

// FNV-1a, to pin report bytes without committing the reports.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct PinnedTrip {
  std::uint64_t index;
  bool tripped;
  std::size_t trip_ordinal;
};

// The codespace tripwire's probe sites and trip ordinals, pinned: a k = 2,
// budget-300 campaign on the N gate (every calibrated site probed) and on
// the measurement-free recovery (calibrated round boundaries only).  A
// shifted probe site or trip ordinal changes these.
TEST(Campaign, CodespaceTripwireReportsArePinned) {
  struct Pin {
    const char* gadget;
    std::size_t probes, first_probe, last_probe;
    std::vector<PinnedTrip> sets;
    std::uint64_t report_fnv;
  };
  const std::vector<Pin> pins = {
      {"ngate", 187, 0, 554,
       {{15, true, 140}, {23, false, 0}, {31, false, 0}, {87, false, 0},
        {104, true, 427}, {125, false, 0}, {130, false, 0}, {151, true, 140},
        {167, false, 0}, {189, true, 300}, {205, true, 292}, {242, false, 0},
        {260, true, 427}, {265, true, 140}, {274, false, 0}, {275, false, 0},
        {281, true, 427}, {282, true, 140}, {291, false, 0}},
       0x92a7035ec49c86f5ull},
      {"recovery", 8, 6176, 36296,
       {{10, true, 30919}, {85, true, 25140}, {178, true, 25140},
        {188, true, 25140}, {207, true, 19293}, {254, true, 30919},
        {295, true, 30919}},
       0xff729f7dac00885bull},
  };
  for (const Pin& pin : pins) {
    GadgetSpec spec;
    spec.gadget = pin.gadget;
    const BuiltGadget built = build_gadget_experiment(spec);
    CampaignConfig cfg;
    cfg.k = 2;
    cfg.budget = 300;
    cfg.jobs = 2;
    cfg.tripwire = codespace_tripwire(built);
    const auto& probes = cfg.tripwire.probe_after;
    ASSERT_EQ(probes.size(), pin.probes) << pin.gadget;
    EXPECT_EQ(probes.front(), pin.first_probe) << pin.gadget;
    EXPECT_EQ(probes.back(), pin.last_probe) << pin.gadget;
    const auto report = run_campaign(built.ex, cfg);
    ASSERT_EQ(report.malignant_sets.size(), pin.sets.size()) << pin.gadget;
    for (std::size_t i = 0; i < pin.sets.size(); ++i) {
      const MalignantSet& m = report.malignant_sets[i];
      EXPECT_EQ(m.index, pin.sets[i].index) << pin.gadget << " set " << i;
      EXPECT_EQ(m.tripped, pin.sets[i].tripped) << pin.gadget << " set " << i;
      EXPECT_EQ(m.trip_ordinal, pin.sets[i].trip_ordinal)
          << pin.gadget << " set " << i;
    }
    EXPECT_EQ(fnv1a(report.to_json()), pin.report_fnv) << pin.gadget;
  }
}

// Naive reference for the probe ordinals: a scan over the reference walk's
// steps for the site of the op before each boundary.
std::vector<std::size_t> reference_probe_ordinals(
    const Circuit& gadget, const std::vector<std::size_t>& op_boundaries) {
  const auto steps = circuit::reference::walk_steps(gadget);
  std::vector<std::size_t> out;
  for (const std::size_t boundary : op_boundaries) {
    if (boundary == 0) continue;
    const std::size_t target_op = boundary - 1;
    for (const auto& step : steps) {
      if (step.is_site && step.op_index == target_op) {
        out.push_back(step.site.ordinal);
        break;
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

TEST(Campaign, ProbeOrdinalsMatchTheSiteScanOnEveryRecoveryCircuit) {
  for (const std::string code_name : {"steane", "rm15"})
    for (int k = 0; k <= 2; ++k)
      for (const bool measurement_free : {true, false}) {
        GadgetSpec spec;
        spec.gadget = measurement_free ? "recovery" : "recovery-measured";
        spec.scenario.code = code_name;
        spec.scenario.repetition_k = k;
        const BuiltGadget built = build_gadget_experiment(spec);
        const std::string what = code_name + " k" + std::to_string(k) +
                                 (measurement_free ? " free" : " measured");
        ASSERT_FALSE(built.round_boundaries.empty()) << what;
        EXPECT_EQ(probe_ordinals_for_op_boundaries(built.ex.gadget,
                                                   built.round_boundaries),
                  reference_probe_ordinals(built.ex.gadget,
                                           built.round_boundaries))
            << what;
      }
}

TEST(Campaign, ProbeOrdinalsMatchTheSiteScanAtEveryOpBoundary) {
  // Every boundary of the N gate (unsorted, with repeats and a 0), and a
  // measured circuit whose classically controlled ops shift the schedule.
  const auto ex = ngate_experiment(LogicalInput::One);
  std::vector<std::size_t> all;
  for (std::size_t b = ex.gadget.size(); b > 0; b -= 7) {
    all.push_back(b);
    all.push_back(b);
    if (b < 7) break;
  }
  all.push_back(0);
  EXPECT_EQ(probe_ordinals_for_op_boundaries(ex.gadget, all),
            reference_probe_ordinals(ex.gadget, all));

  Circuit c(3);
  for (int i = 0; i < 40; ++i) {
    const auto m = c.measure_z(static_cast<std::uint32_t>(i % 3));
    c.h(static_cast<std::uint32_t>((i + 1) % 3));
    c.x_if(c.cbit_func(m), static_cast<std::uint32_t>((i + 2) % 3));
  }
  std::vector<std::size_t> every;
  for (std::size_t b = 0; b <= c.size(); ++b) every.push_back(b);
  EXPECT_EQ(probe_ordinals_for_op_boundaries(c, every),
            reference_probe_ordinals(c, every));
}

TEST(Campaign, ProbeOrdinalBoundaryPastTheOpCountIsRejected) {
  const auto ex = ngate_experiment(LogicalInput::One);
  const std::size_t ops = ex.gadget.size();
  EXPECT_NO_THROW((void)probe_ordinals_for_op_boundaries(ex.gadget, {ops}));
  EXPECT_THROW((void)probe_ordinals_for_op_boundaries(ex.gadget, {ops + 1}),
               ContractViolation);
}

// --- config validation ------------------------------------------------------

TEST(Campaign, RejectsMisconfiguredCampaigns) {
  const auto ex = ngate_experiment(LogicalInput::One);
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
