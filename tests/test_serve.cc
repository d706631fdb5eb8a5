// Tests for the eqc_serve stack: job spec round-trips, the job runner's
// progress logs (resume from a log cut at every byte of its last two
// records, for the campaign, fuzz and Monte-Carlo engines alike), the
// crash-safe scheduler (resume, cancellation, drain, torn journal tails),
// the socket server, and the kill -9 soak harness proving resumed runs
// produce byte-identical final reports.  The journal's own crash model is
// tested in test_common.
#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/experiments.h"
#include "common/assert.h"
#include "common/checkpoint.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "noise/model.h"
#include "serve/jobs.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server.h"

namespace eqc::serve {
namespace {

// A scratch state directory that cleans up after itself.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& name) {
    path = ::testing::TempDir() + name + "-" + std::to_string(::getpid());
    remove_all();
    ::mkdir(path.c_str(), 0755);
  }
  ~TempDir() { remove_all(); }

  void remove_all() {
    DIR* dir = ::opendir(path.c_str());
    if (dir != nullptr) {
      while (dirent* e = ::readdir(dir)) {
        const std::string name = e->d_name;
        if (name == "." || name == "..") continue;
        std::remove((path + "/" + name).c_str());
      }
      ::closedir(dir);
    }
    ::rmdir(path.c_str());
  }

  std::string file(const std::string& name) const { return path + "/" + name; }
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

json::Value event(const char* name, std::uint64_t id) {
  json::Object obj;
  obj.emplace_back("event", name);
  obj.emplace_back("id", id);
  return json::Value(std::move(obj));
}

JobSpec small_mc_spec() {
  JobSpec spec;
  spec.type = JobType::MonteCarlo;
  spec.gadget.gadget = "ngate";
  spec.jobs = 2;
  spec.seed = 7;
  spec.mc.p = 1e-3;
  spec.mc.trials = 1200;
  spec.mc.block = 64;
  return spec;
}

JobSpec small_campaign_spec() {
  JobSpec spec;
  spec.type = JobType::Campaign;
  spec.gadget.gadget = "ngate";
  spec.jobs = 2;
  spec.campaign.k = 2;
  spec.campaign.budget = 300;
  spec.checkpoint_every = 32;
  return spec;
}

JobSpec small_fuzz_spec() {
  JobSpec spec;
  spec.type = JobType::Fuzz;
  spec.jobs = 2;
  spec.seed = 3;
  spec.fuzz.qubits = 4;
  spec.fuzz.depth = 20;
  spec.fuzz.trials = 120;
  spec.fuzz.bug = testing::PlantedBug::SInverted;
  spec.checkpoint_every = 16;
  return spec;
}

JobSpec small_matrix_spec() {
  JobSpec spec;
  spec.type = JobType::Matrix;
  spec.jobs = 2;
  spec.seed = 9;
  spec.matrix.gadgets = {"ngate"};
  spec.matrix.codes = {"steane"};
  spec.matrix.ks = {1};
  spec.matrix.noises = {"paper"};
  spec.matrix.budget = 60;
  return spec;
}

// --- job specs --------------------------------------------------------------

TEST(JobSpec, RoundTripsThroughJson) {
  for (const JobSpec& spec :
       {small_mc_spec(), small_campaign_spec(), small_fuzz_spec(),
        small_matrix_spec()}) {
    const json::Value v = spec.to_json_value();
    const JobSpec back = JobSpec::from_json(v);
    EXPECT_EQ(back.to_json_value().dump(), v.dump());
  }
}

TEST(JobSpec, ScenarioRoundTripsAndLegacyKeysStillParse) {
  // New scenario fields survive the round trip...
  JobSpec spec = small_mc_spec();
  spec.gadget.scenario.code = "rm15";
  spec.gadget.scenario.repetition_k = 2;
  spec.gadget.scenario.noise = "biased-z";
  const JobSpec back = JobSpec::from_json(spec.to_json_value());
  EXPECT_EQ(back.gadget.scenario.code, "rm15");
  EXPECT_EQ(back.gadget.scenario.repetition_k, 2);
  EXPECT_EQ(back.gadget.scenario.noise, "biased-z");

  // ...and pre-refactor specs (reps + correlated flag, no code/noise keys)
  // map onto the scenario: reps=5 -> k=2, correlated=true -> noise.
  const JobSpec legacy = JobSpec::from_json(json::Value::parse(
      R"({"type":"mc","gadget":"ngate","reps":5,"correlated":true})"));
  EXPECT_EQ(legacy.gadget.scenario.code, "steane");
  EXPECT_EQ(legacy.gadget.scenario.repetition_k, 2);
  EXPECT_EQ(legacy.gadget.scenario.noise, "correlated");
  EXPECT_EQ(legacy.gadget.scenario.reps(), 5);

  // Even repetition counts are rejected.
  EXPECT_THROW((void)JobSpec::from_json(json::Value::parse(
                   R"({"type":"mc","gadget":"ngate","reps":4})")),
               ContractViolation);
}

TEST(RunJob, MatrixJobWritesAMatrixReport) {
  const JobSpec spec = small_matrix_spec();
  TempDir dir("runjob-matrix");
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  JobProgress last;
  const auto outcome = run_job(spec, paths, nullptr,
                               [&last](const JobProgress& p) { last = p; });
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(last.items_done, last.total_items);
  EXPECT_EQ(last.total_items, 1u);  // one grid cell
  const auto report = json::Value::parse(slurp(paths.report));
  const auto& obj = report.as_object();
  ASSERT_FALSE(obj.empty());
  EXPECT_EQ(obj[0].first, "kind");
  EXPECT_EQ(obj[0].second.as_string(), "eqc_matrix_report");
  // Re-running the completed job (per-cell checkpoints in place) must
  // reproduce the report byte for byte.
  const std::string first = slurp(paths.report);
  const auto again = run_job(spec, paths, nullptr, nullptr);
  ASSERT_TRUE(again.complete);
  EXPECT_EQ(slurp(paths.report), first);
}

TEST(JobSpec, RejectsUnknownTypeAndGadget) {
  EXPECT_THROW((void)JobSpec::from_json(json::Value::parse(
                   R"({"type":"frobnicate"})")),
               ContractViolation);
  EXPECT_THROW((void)JobSpec::from_json(json::Value::parse(
                   R"({"type":"mc","gadget":"nope"})")),
               ContractViolation);
}

TEST(JobSpec, RejectsWorkerCountsNoPoolShouldStart) {
  // Parsed only: no job runs, so no pool of that size is ever started.
  auto parse = [](const char* text) {
    return JobSpec::from_json(json::Value::parse(text));
  };
  EXPECT_EQ(parse(R"({"type":"fuzz","jobs":1024})").jobs, parallel::kMaxJobs);
  EXPECT_EQ(parse(R"({"type":"fuzz","jobs":0})").jobs, 0u);
  EXPECT_THROW((void)parse(R"({"type":"fuzz","jobs":1025})"),
               ContractViolation);
  EXPECT_THROW((void)parse(R"({"type":"fuzz","jobs":4294967296})"),
               ContractViolation);
  for (const char* bad : {R"({"type":"fuzz","jobs":-1})",
                          R"({"type":"fuzz","jobs":"4"})",
                          R"({"type":"fuzz","jobs":2.5})"})
    EXPECT_THROW((void)parse(bad), json::JsonError) << bad;
}

// --- job runner -------------------------------------------------------------

TEST(RunJob, McJobResumesToByteIdenticalReport) {
  const JobSpec spec = small_mc_spec();

  TempDir baseline_dir("runjob-mc-baseline");
  JobPaths baseline{baseline_dir.file("ck.json"), baseline_dir.file("report.json")};
  const auto ref = run_job(spec, baseline, nullptr, nullptr);
  ASSERT_TRUE(ref.complete);
  const std::string ref_report = slurp(baseline.report);

  // Interrupted run: stop partway through via the progress hook, then
  // resume from the checkpoint.
  TempDir dir("runjob-mc-resume");
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  std::atomic<bool> stop{false};
  const auto interrupted =
      run_job(spec, paths, &stop, [&stop](const JobProgress& p) {
        if (p.items_done >= 300) stop.store(true);
      });
  EXPECT_FALSE(interrupted.complete);
  EXPECT_TRUE(slurp(paths.report).empty());  // no report until complete

  const auto resumed = run_job(spec, paths, nullptr, nullptr);
  ASSERT_TRUE(resumed.complete);
  EXPECT_EQ(slurp(paths.report), ref_report);

  // The report states its estimator once, the counter only its counts.
  const json::Value report = json::Value::parse(ref_report);
  EXPECT_EQ(report.at("estimator").dump(),
            estimator_json(analysis::kMcEngine, noise::kStreamRevision)
                .dump());
  EXPECT_EQ(report.at("counter").dump(),
            analysis::run_gadget_mc(
                analysis::build_gadget_experiment(spec.gadget),
                analysis::scenario_noise_model(spec.gadget.scenario,
                                               spec.mc.p),
                spec.mc.trials, spec.seed)
                .to_json_value()
                .dump());
}

TEST(RunJob, McRevisionOneCheckpointIsRefusedAndNeverResumed) {
  const JobSpec spec = small_mc_spec();
  TempDir dir("runjob-mc-rev1");
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  std::atomic<bool> stop{false};
  (void)run_job(spec, paths, &stop, [&stop](const JobProgress& p) {
    if (p.items_done >= 300) stop.store(true);
  });

  // Stream revision 1 fingerprinted an MC checkpoint with the bare spec:
  // rewrite the log's first record (its header) that way.
  const std::string log = slurp(paths.checkpoint);
  const std::size_t first_end = log.find('\n');
  ASSERT_NE(first_end, std::string::npos);
  json::Value first = json::Value::parse(log.substr(0, first_end));
  first.set("fingerprint", spec.to_json_value());
  const std::string rev1 = first.dump() + log.substr(first_end);
  spit(paths.checkpoint, rev1);

  EXPECT_THROW((void)run_job(spec, paths, nullptr, nullptr),
               ContractViolation);
  EXPECT_EQ(slurp(paths.checkpoint), rev1);
  EXPECT_TRUE(slurp(paths.report).empty());
}

// MC jobs always run frame batches.  A spec that still names an engine
// parses (old journals replay), but the spec no longer serializes the field,
// so the checkpoint such a spec wrote carries another fingerprint: refused
// as a contract violation, never resumed.  An engine-less spec's checkpoint
// resumes to the uninterrupted report.
TEST(RunJob, McSpecEngineFieldParsesButItsOldCheckpointIsRefused) {
  const JobSpec spec = small_mc_spec();
  const json::Value plain = spec.to_json_value();
  json::Object with_engine;
  for (const auto& [key, value] : plain.as_object()) {
    with_engine.emplace_back(key, value);
    if (key == "block") with_engine.emplace_back("engine", "frames");
  }
  const JobSpec frames_spec = JobSpec::from_json(json::Value(with_engine));
  EXPECT_EQ(frames_spec.to_json_value().dump(), plain.dump());

  TempDir baseline_dir("runjob-mc-engine-ref");
  JobPaths baseline{baseline_dir.file("ck.json"),
                    baseline_dir.file("report.json")};
  ASSERT_TRUE(run_job(spec, baseline, nullptr, nullptr).complete);

  TempDir dir("runjob-mc-engine");
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  std::atomic<bool> stop{false};
  (void)run_job(spec, paths, &stop, [&stop](const JobProgress& p) {
    if (p.items_done >= 300) stop.store(true);
  });
  const std::string log = slurp(paths.checkpoint);
  ASSERT_FALSE(log.empty());

  // The same progress under the header a "frames" spec wrote.
  TempDir old_dir("runjob-mc-engine-old");
  JobPaths old_paths{old_dir.file("ck.json"), old_dir.file("report.json")};
  const std::size_t first_end = log.find('\n');
  ASSERT_NE(first_end, std::string::npos);
  json::Value header = json::Value::parse(log.substr(0, first_end));
  json::Object fp;
  fp.emplace_back("spec", json::Value(with_engine));
  fp.emplace_back("stream_revision", noise::kStreamRevision);
  header.set("fingerprint", json::Value(std::move(fp)));
  const std::string old_log = header.dump() + log.substr(first_end);
  spit(old_paths.checkpoint, old_log);
  EXPECT_THROW((void)run_job(frames_spec, old_paths, nullptr, nullptr),
               ContractViolation);
  EXPECT_EQ(slurp(old_paths.checkpoint), old_log);
  EXPECT_TRUE(slurp(old_paths.report).empty());

  ASSERT_TRUE(run_job(spec, paths, nullptr, nullptr).complete);
  EXPECT_EQ(slurp(paths.report), slurp(baseline.report));
}

// A chaos job samples its fault sets from the spec's noise axis, exactly as
// run_campaign does under scenario_noise_model (and as the same job's
// k-fault enumeration already honoured the axis).
TEST(RunJob, ChaosJobSamplesTheSpecNoiseAxis) {
  JobSpec spec = small_campaign_spec();
  spec.gadget.scenario.noise = "biased-z";
  spec.campaign.chaos = true;
  spec.campaign.chaos_p = 0.02;
  spec.campaign.budget = 200;
  spec.campaign.shrink = false;
  TempDir dir("runjob-chaos-noise");
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  ASSERT_TRUE(run_job(spec, paths, nullptr, nullptr).complete);

  const analysis::BuiltGadget built =
      analysis::build_gadget_experiment(spec.gadget);
  analysis::CampaignConfig cfg;
  cfg.mode = analysis::CampaignMode::Chaos;
  cfg.budget = spec.campaign.budget;
  cfg.chaos_model = analysis::scenario_noise_model(spec.gadget.scenario,
                                                   spec.campaign.chaos_p);
  cfg.shrink = false;
  const auto report = analysis::run_campaign(built.ex, cfg);
  EXPECT_GT(report.malignant, 0u);
  EXPECT_EQ(slurp(paths.report), report.to_json());
}

TEST(RunJob, McSchemaOneDocumentCheckpointIsQuarantinedNotResumed) {
  const JobSpec spec = small_mc_spec();
  TempDir baseline_dir("runjob-mc-schema1-ref");
  JobPaths baseline{baseline_dir.file("ck.json"),
                    baseline_dir.file("report.json")};
  ASSERT_TRUE(run_job(spec, baseline, nullptr, nullptr).complete);

  // The whole-document schema-1 checkpoint of an earlier build: no
  // trailing newline, so it would look like a torn tail if it were not
  // checked to be the start of a record.  Its counters claim a prefix
  // that must never be folded in.
  TempDir dir("runjob-mc-schema1");
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  json::Object fp;
  fp.emplace_back("spec", spec.to_json_value());
  fp.emplace_back("stream_revision", noise::kStreamRevision);
  json::Object doc;
  doc.emplace_back("kind", "eqc-mc-checkpoint");
  doc.emplace_back("schema_version", 1);
  doc.emplace_back("fingerprint", json::Value(std::move(fp)).dump());
  doc.emplace_back("next_index", 600);
  doc.emplace_back("trials", 600);
  doc.emplace_back("failures", 600);
  doc.emplace_back("stopped_early", false);
  const std::string schema1 = json::Value(std::move(doc)).dump();
  spit(paths.checkpoint, schema1);

  ASSERT_TRUE(run_job(spec, paths, nullptr, nullptr).complete);
  EXPECT_EQ(slurp(paths.checkpoint + ".corrupt"), schema1);
  EXPECT_EQ(slurp(paths.report), slurp(baseline.report));
}

// The first record of a hand-written serve-MC progress log under
// `schema`, up to its header: members of the flush follow.
std::string mc_log_header(const JobSpec& spec, std::uint64_t schema) {
  json::Object fp;
  fp.emplace_back("spec", spec.to_json_value());
  fp.emplace_back("stream_revision", noise::kStreamRevision);
  return "{\"seq\":0,\"kind\":\"eqc-mc-checkpoint\",\"schema_version\":" +
         std::to_string(schema) +
         ",\"fingerprint\":" + json::Value(std::move(fp)).dump();
}

// The serve-MC progress log keeps its schema-3 bytes.  Records written by
// hand in that form — {next_index, trials, failures}, the first carrying
// the header — resume to the uninterrupted report, and a record whose
// next_index disagrees with its trials is damage: quarantined, never
// folded.
TEST(RunJob, McSchemaThreeRecordsResumeAndAMismatchedIndexIsQuarantined) {
  const JobSpec spec = small_mc_spec();
  TempDir baseline_dir("runjob-mc-schema3-ref");
  JobPaths baseline{baseline_dir.file("ck.json"),
                    baseline_dir.file("report.json")};
  ASSERT_TRUE(run_job(spec, baseline, nullptr, nullptr).complete);

  const analysis::BuiltGadget built =
      analysis::build_gadget_experiment(spec.gadget);
  auto failures_at = [&](std::uint64_t trials) {
    return std::to_string(
        analysis::run_gadget_mc(
            built,
            analysis::scenario_noise_model(spec.gadget.scenario, spec.mc.p),
            trials, spec.seed)
            .failures);
  };
  const std::string header = mc_log_header(spec, 3) +
                             ",\"next_index\":320,\"trials\":320,\"failures\":" +
                             failures_at(320) + "}\n";
  const std::string good =
      "{\"seq\":1,\"next_index\":640,\"trials\":640,\"failures\":" +
      failures_at(640) + "}\n";
  const std::string bad =
      "{\"seq\":1,\"next_index\":704,\"trials\":640,\"failures\":" +
      failures_at(640) + "}\n";

  // Resumed: the log is appended to after the two records, and the first
  // progress after the resume is past them.
  TempDir dir("runjob-mc-schema3");
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  spit(paths.checkpoint, header + good);
  std::uint64_t first_done = 0;
  ASSERT_TRUE(run_job(spec, paths, nullptr, [&](const JobProgress& p) {
                if (first_done == 0) first_done = p.items_done;
              }).complete);
  EXPECT_GT(first_done, 640u);
  EXPECT_EQ(slurp(paths.checkpoint).substr(0, header.size() + good.size()),
            header + good);
  EXPECT_TRUE(slurp(paths.checkpoint + ".corrupt").empty());
  EXPECT_EQ(slurp(paths.report), slurp(baseline.report));

  // Quarantined: the job starts afresh and still lands on the report.
  TempDir bad_dir("runjob-mc-schema3-bad");
  JobPaths bad_paths{bad_dir.file("ck.json"), bad_dir.file("report.json")};
  spit(bad_paths.checkpoint, header + bad);
  ASSERT_TRUE(run_job(spec, bad_paths, nullptr, nullptr).complete);
  EXPECT_EQ(slurp(bad_paths.checkpoint + ".corrupt"), header + bad);
  EXPECT_EQ(slurp(bad_paths.report), slurp(baseline.report));
}

// A schema-2 log, whose records also carried a constant early-stop flag,
// is another format: quarantined whole and never folded in (its counts
// here are impossible ones), and the job reaches the uninterrupted report.
TEST(RunJob, McSchemaTwoLogIsQuarantinedAndReachesTheUninterruptedReport) {
  const JobSpec spec = small_mc_spec();
  TempDir baseline_dir("runjob-mc-schema2-ref");
  JobPaths baseline{baseline_dir.file("ck.json"),
                    baseline_dir.file("report.json")};
  ASSERT_TRUE(run_job(spec, baseline, nullptr, nullptr).complete);

  const std::string schema2 =
      mc_log_header(spec, 2) +
      ",\"next_index\":320,\"trials\":320,\"failures\":320,"
      "\"stopped_early\":false}\n"
      "{\"seq\":1,\"next_index\":640,\"trials\":640,\"failures\":640,"
      "\"stopped_early\":false}\n";
  TempDir dir("runjob-mc-schema2");
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  spit(paths.checkpoint, schema2);
  std::uint64_t first_done = 0;
  ASSERT_TRUE(run_job(spec, paths, nullptr, [&](const JobProgress& p) {
                if (first_done == 0) first_done = p.items_done;
              }).complete);
  EXPECT_LE(first_done, 320u);  // started afresh, not at 640
  EXPECT_EQ(slurp(paths.checkpoint + ".corrupt"), schema2);
  EXPECT_EQ(slurp(paths.report), slurp(baseline.report));
}

// A campaign job with "tripwire": true arms the gadget's codespace
// tripwire: its report is run_campaign's under codespace_tripwire, a
// malignant set trips it, and a job stopped and resumed writes the same
// bytes.
TEST(RunJob, TripwireCampaignJobMatchesRunCampaignAndResumes) {
  JobSpec spec = small_campaign_spec();
  spec.campaign.tripwire = true;
  TempDir baseline_dir("runjob-tripwire-baseline");
  JobPaths baseline{baseline_dir.file("ck.json"),
                    baseline_dir.file("report.json")};
  ASSERT_TRUE(run_job(spec, baseline, nullptr, nullptr).complete);
  const std::string ref_report = slurp(baseline.report);

  const analysis::BuiltGadget built =
      analysis::build_gadget_experiment(spec.gadget);
  analysis::CampaignConfig cfg;
  cfg.k = spec.campaign.k;
  cfg.budget = spec.campaign.budget;
  cfg.tripwire = analysis::codespace_tripwire(built);
  const auto report = analysis::run_campaign(built.ex, cfg);
  EXPECT_EQ(ref_report, report.to_json());
  EXPECT_TRUE(std::any_of(report.malignant_sets.begin(),
                          report.malignant_sets.end(),
                          [](const auto& m) { return m.tripped; }));

  TempDir dir("runjob-tripwire-resume");
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  std::atomic<bool> stop{false};
  EXPECT_FALSE(run_job(spec, paths, &stop, [&stop](const JobProgress& p) {
                 if (p.items_done >= 100) stop.store(true);
               }).complete);
  EXPECT_TRUE(slurp(paths.report).empty());
  ASSERT_TRUE(run_job(spec, paths, nullptr, nullptr).complete);
  EXPECT_EQ(slurp(paths.report), ref_report);
}

TEST(RunJob, ProgressReportsUniformCounterShape) {
  const JobSpec spec = small_campaign_spec();
  TempDir dir("runjob-progress");
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  JobProgress last;
  const auto outcome =
      run_job(spec, paths, nullptr,
              [&last](const JobProgress& p) { last = p; });
  ASSERT_TRUE(outcome.complete);
  EXPECT_EQ(last.items_done, last.total_items);
  EXPECT_EQ(last.counter.trials, spec.campaign.budget);
}

// --- progress-log resume, every engine --------------------------------------

JobSpec truncation_spec(const std::string& engine) {
  JobSpec spec;
  if (engine == "campaign") {
    spec = small_campaign_spec();
    spec.campaign.budget = 120;  // not a multiple of the cadence: the
    spec.checkpoint_every = 16;  // last two flushes differ in next_index
  } else if (engine == "fuzz") {
    spec = small_fuzz_spec();
    spec.fuzz.depth = 8;
    spec.fuzz.trials = 24;
    spec.checkpoint_every = 6;
  } else {
    spec = small_mc_spec();
    spec.mc.trials = 600;
    spec.mc.block = 64;
  }
  return spec;
}

class ProgressLogTruncation : public ::testing::TestWithParam<std::string> {};

// A crash leaves the log cut anywhere inside its last record; a log cut
// anywhere inside its last TWO records covers that for the record before
// as well.  Each cut must resume to the reference report byte for byte,
// with nothing quarantined.
TEST_P(ProgressLogTruncation, EveryCutInTheLastTwoRecordsResumesToTheReport) {
  const JobSpec spec = truncation_spec(GetParam());
  TempDir dir("progress-truncate-" + GetParam());
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  ASSERT_TRUE(run_job(spec, paths, nullptr, nullptr).complete);
  const std::string reference = slurp(paths.report);
  const std::string log = slurp(paths.checkpoint);
  ASSERT_FALSE(reference.empty());
  ASSERT_EQ(log.back(), '\n');

  // Start of the second-to-last record.
  std::size_t from = log.rfind('\n', log.size() - 2);
  ASSERT_NE(from, std::string::npos);
  from = log.rfind('\n', from - 1);
  ASSERT_NE(from, std::string::npos);
  ++from;
  for (std::size_t len = from; len < log.size(); ++len) {
    spit(paths.checkpoint, log.substr(0, len));
    std::remove(paths.report.c_str());
    ASSERT_TRUE(run_job(spec, paths, nullptr, nullptr).complete)
        << "cut at byte " << len;
    ASSERT_EQ(slurp(paths.report), reference) << "cut at byte " << len;
    ASSERT_TRUE(slurp(paths.checkpoint + ".corrupt").empty())
        << "cut at byte " << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, ProgressLogTruncation,
                         ::testing::Values("campaign", "fuzz", "mc"),
                         [](const auto& info) { return info.param; });

// --- scheduler --------------------------------------------------------------

TEST(Scheduler, RunsSubmittedJobsToDone) {
  TempDir dir("sched-basic");
  SchedulerConfig cfg;
  cfg.state_dir = dir.path;
  cfg.max_concurrent_jobs = 2;
  Scheduler sched(cfg);
  const std::uint64_t mc = sched.submit(small_mc_spec());
  const std::uint64_t fz = sched.submit(small_fuzz_spec());
  ASSERT_TRUE(sched.wait_idle(60.0));
  EXPECT_EQ(sched.status(mc).at("status").as_string(), "done");
  EXPECT_EQ(sched.status(fz).at("status").as_string(), "done");
  EXPECT_EQ(sched.unfinished(), 0u);
  EXPECT_FALSE(slurp(dir.file("job-0.report.json")).empty());
  EXPECT_FALSE(slurp(dir.file("job-1.report.json")).empty());
  // The fuzz job found the planted bug; the status counter says so.
  EXPECT_GT(sched.status(fz).at("counter").at("failures").as_u64(), 0u);
}

TEST(Scheduler, CancelQueuedJobNeverRuns) {
  TempDir dir("sched-cancel-queued");
  SchedulerConfig cfg;
  cfg.state_dir = dir.path;
  cfg.max_concurrent_jobs = 1;
  Scheduler sched(cfg);
  // One long job occupies the single slot; the second stays queued.
  JobSpec big = small_mc_spec();
  big.mc.trials = 500000;
  big.mc.block = 64;
  const std::uint64_t first = sched.submit(big);
  const std::uint64_t second = sched.submit(small_mc_spec());
  EXPECT_TRUE(sched.cancel(second));
  EXPECT_EQ(sched.status(second).at("status").as_string(), "cancelled");
  EXPECT_TRUE(sched.cancel(first));
  ASSERT_TRUE(sched.wait_idle(60.0));
  EXPECT_EQ(sched.status(first).at("status").as_string(), "cancelled");
  EXPECT_FALSE(sched.cancel(first));  // already terminal
  EXPECT_EQ(sched.unfinished(), 0u);
}

// The worker drops a job cancelled while queued without running it; that
// pop empties the queue and must wake wait_idle(), which would otherwise
// sleep out its whole timeout with nothing left to do.
TEST(Scheduler, WaitIdleWakesWhenACancelledQueuedJobIsDropped) {
  constexpr double kTimeoutSec = 6.0;
  for (int round = 0; round < 3; ++round) {
    TempDir dir("sched-cancel-wake-" + std::to_string(round));
    SchedulerConfig cfg;
    cfg.state_dir = dir.path;
    cfg.max_concurrent_jobs = 1;
    Scheduler sched(cfg);
    JobSpec big = small_mc_spec();
    big.mc.trials = 500000;
    big.mc.block = 64;
    const std::uint64_t first = sched.submit(big);
    const std::uint64_t second = sched.submit(small_mc_spec());
    EXPECT_TRUE(sched.cancel(second));
    EXPECT_TRUE(sched.cancel(first));
    const auto t0 = std::chrono::steady_clock::now();
    ASSERT_TRUE(sched.wait_idle(kTimeoutSec));
    const std::chrono::duration<double> waited =
        std::chrono::steady_clock::now() - t0;
    EXPECT_LT(waited.count(), kTimeoutSec / 2) << "round " << round;
    EXPECT_EQ(sched.unfinished(), 0u);
  }
}

TEST(Scheduler, DrainThenNewSchedulerResumesToByteIdenticalReport) {
  // Long enough (~0.8 s on two workers of a 4-core x86-64 Xeon) to be
  // still running when the drain lands 150 ms in.
  const JobSpec spec = [] {
    JobSpec s = small_mc_spec();
    s.gadget.gadget = "recovery";
    s.gadget.scenario.code = "rm15";
    s.mc.trials = 40000;
    s.mc.block = 1024;
    return s;
  }();

  TempDir baseline_dir("sched-resume-baseline");
  {
    SchedulerConfig cfg;
    cfg.state_dir = baseline_dir.path;
    Scheduler sched(cfg);
    sched.submit(spec);
    // The job runs twice in this test; under ASan on a single core the
    // run alone can take minutes, so the deadline is generous.
    ASSERT_TRUE(sched.wait_idle(600.0));
  }
  const std::string ref = slurp(baseline_dir.file("job-0.report.json"));
  ASSERT_FALSE(ref.empty());

  TempDir dir("sched-resume");
  {
    SchedulerConfig cfg;
    cfg.state_dir = dir.path;
    Scheduler sched(cfg);
    sched.submit(spec);
    // Give the job a moment to start and checkpoint, then drain.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    sched.drain();
    EXPECT_EQ(sched.unfinished(), 1u);
  }
  {
    SchedulerConfig cfg;
    cfg.state_dir = dir.path;
    Scheduler sched(cfg);  // recovery re-enqueues and resumes
    ASSERT_TRUE(sched.wait_idle(600.0));
    EXPECT_EQ(sched.status(0).at("status").as_string(), "done");
  }
  EXPECT_EQ(slurp(dir.file("job-0.report.json")), ref);
}

TEST(Scheduler, CancelRequestedBeforeCrashIsHonouredAtRecovery) {
  TempDir dir("sched-cancel-recover");
  // Hand-build a journal: submitted, started, cancel requested, no
  // terminal event (the process died before honouring it).
  {
    Journal journal(dir.file("journal.jsonl"), 0, "serve.journal.append");
    json::Value submit = event("submit", 0);
    submit.set("spec", small_mc_spec().to_json_value());
    journal.append(std::move(submit));
    journal.append(event("start", 0));
    journal.append(event("cancel", 0));
  }
  SchedulerConfig cfg;
  cfg.state_dir = dir.path;
  Scheduler sched(cfg);
  EXPECT_EQ(sched.status(0).at("status").as_string(), "cancelled");
  EXPECT_EQ(sched.unfinished(), 0u);
}

// Regression: a restart after a torn journal tail used to append behind
// the fragment; the restart after that found interior damage, quarantined
// the journal and dropped every job.
TEST(Scheduler, TornJournalTailThenAppendKeepsEveryJob) {
  TempDir dir("sched-torn-append");
  {
    Journal journal(dir.file("journal.jsonl"), 0, "serve.journal.append");
    json::Value submit = event("submit", 0);
    submit.set("spec", small_mc_spec().to_json_value());
    journal.append(std::move(submit));
    journal.append(event("start", 0));
  }
  spit(dir.file("journal.jsonl"),
       slurp(dir.file("journal.jsonl")) + R"({"seq":2,"event":"do)");
  SchedulerConfig cfg;
  cfg.state_dir = dir.path;
  {
    Scheduler sched(cfg);  // resumes job 0 and journals behind the tail
    EXPECT_EQ(sched.submit(small_fuzz_spec()), 1u);
    ASSERT_TRUE(sched.wait_idle(60.0));
  }
  Scheduler sched(cfg);
  EXPECT_TRUE(slurp(dir.file("journal.jsonl.corrupt")).empty());
  EXPECT_EQ(sched.status(0).at("status").as_string(), "done");
  EXPECT_EQ(sched.status(1).at("status").as_string(), "done");
  EXPECT_EQ(sched.unfinished(), 0u);
}

TEST(Scheduler, CorruptJournalIsQuarantinedAndStartsFresh) {
  TempDir dir("sched-journal-corrupt");
  spit(dir.file("journal.jsonl"), "this is not a journal\n");
  SchedulerConfig cfg;
  cfg.state_dir = dir.path;
  Scheduler sched(cfg);
  EXPECT_EQ(sched.unfinished(), 0u);
  EXPECT_FALSE(slurp(dir.file("journal.jsonl.corrupt")).empty());
  // The fresh journal works: submit and run a job.
  sched.submit(small_fuzz_spec());
  ASSERT_TRUE(sched.wait_idle(60.0));
  EXPECT_EQ(sched.status(0).at("status").as_string(), "done");
}

// --- server + protocol ------------------------------------------------------

struct InThreadServer {
  std::atomic<bool> stop{false};
  std::thread thread;
  std::size_t unfinished = 0;

  InThreadServer(const std::string& state_dir, const std::string& socket) {
    ServerConfig cfg;
    cfg.state_dir = state_dir;
    cfg.socket_path = socket;
    cfg.max_concurrent_jobs = 2;
    cfg.stop = &stop;
    cfg.log = [](const std::string&) {};
    thread = std::thread([this, cfg] { unfinished = run_server(cfg); });
    for (int i = 0; i < 100 && !server_alive(socket); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ~InThreadServer() {
    stop.store(true);
    if (thread.joinable()) thread.join();
  }
};

json::Value verb(const char* v) {
  json::Object obj;
  obj.emplace_back("verb", v);
  return json::Value(std::move(obj));
}

TEST(Server, SubmitStatusShutdownOverTheSocket) {
  TempDir dir("server-basic");
  const std::string socket = dir.file("serve.sock");
  InThreadServer server(dir.path, socket);
  ASSERT_TRUE(server_alive(socket));

  Client client(socket);
  json::Value submit = verb("submit");
  submit.set("job", small_fuzz_spec().to_json_value());
  const json::Value resp = client.request(submit);
  ASSERT_TRUE(resp.at("ok").as_bool());
  const std::uint64_t id = resp.at("id").as_u64();

  // Poll status until the job lands.
  std::string status;
  for (int i = 0; i < 300; ++i) {
    json::Value req = verb("status");
    req.set("id", id);
    const json::Value s = client.request(req);
    ASSERT_TRUE(s.at("ok").as_bool());
    status = s.at("jobs").as_array().at(0).at("status").as_string();
    if (status == "done" || status == "failed") break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(status, "done");

  json::Value shutdown = verb("shutdown");
  shutdown.set("mode", "finish");
  EXPECT_TRUE(client.request(shutdown).at("ok").as_bool());
  server.thread.join();
  EXPECT_EQ(server.unfinished, 0u);
}

TEST(Server, RejectsMalformedRequestsWithoutDying) {
  TempDir dir("server-bad-requests");
  const std::string socket = dir.file("serve.sock");
  InThreadServer server(dir.path, socket);
  ASSERT_TRUE(server_alive(socket));

  Client client(socket);
  EXPECT_FALSE(client.request(json::Value::parse("{}")).at("ok").as_bool());
  EXPECT_FALSE(client.request(verb("frobnicate")).at("ok").as_bool());
  json::Value bad_submit = verb("submit");
  bad_submit.set("job", json::Value::parse(R"({"type":"nope"})"));
  EXPECT_FALSE(client.request(bad_submit).at("ok").as_bool());
  json::Value bad_cancel = verb("cancel");
  bad_cancel.set("id", std::uint64_t{999});
  const json::Value resp = client.request(bad_cancel);
  EXPECT_TRUE(resp.at("ok").as_bool());
  EXPECT_FALSE(resp.at("cancelled").as_bool());
  EXPECT_TRUE(server_alive(socket));
}

TEST(Server, MetricsVerbReturnsTheObsSnapshot) {
  TempDir dir("server-metrics");
  const std::string socket = dir.file("serve.sock");
  InThreadServer server(dir.path, socket);
  ASSERT_TRUE(server_alive(socket));

  Client client(socket);
  const json::Value resp = client.request(verb("metrics"));
  ASSERT_TRUE(resp.at("ok").as_bool());
  const json::Value& snap = resp.at("metrics");
  EXPECT_EQ(snap.at("kind").as_string(), "eqc_metrics");
  // Both determinism sections are present with their three metric kinds.
  for (const char* section : {"metrics", "runtime"}) {
    EXPECT_NE(snap.at(section).find("counters"), nullptr);
    EXPECT_NE(snap.at(section).find("gauges"), nullptr);
    EXPECT_NE(snap.at(section).find("histograms"), nullptr);
  }
}

TEST(Server, WatchVerbStreamsProgressUntilTerminal) {
  TempDir dir("server-watch");
  const std::string socket = dir.file("serve.sock");
  InThreadServer server(dir.path, socket);
  ASSERT_TRUE(server_alive(socket));

  std::uint64_t id = 0;
  {
    Client submit_client(socket);
    json::Value submit = verb("submit");
    submit.set("job", small_fuzz_spec().to_json_value());
    const json::Value resp = submit_client.request(submit);
    ASSERT_TRUE(resp.at("ok").as_bool());
    id = resp.at("id").as_u64();
  }

  Client client(socket);
  json::Value req = verb("watch");
  req.set("id", id);
  client.send(req);
  client.set_read_timeout(30.0);

  // First response acknowledges the watch; then progress events stream
  // until the job is terminal and the server hangs up.
  json::Value resp;
  ASSERT_TRUE(client.read_response(resp));
  ASSERT_TRUE(resp.at("ok").as_bool());
  EXPECT_EQ(resp.at("watching").as_u64(), id);

  std::string last_status;
  std::size_t events = 0;
  while (client.read_response(resp)) {
    ASSERT_TRUE(resp.at("ok").as_bool());
    EXPECT_EQ(resp.at("event").as_string(), "progress");
    const json::Value& job = resp.at("job");
    EXPECT_EQ(job.at("id").as_u64(), id);
    EXPECT_NE(job.find("elapsed_sec"), nullptr);
    EXPECT_NE(job.find("rate_per_sec"), nullptr);
    last_status = job.at("status").as_string();
    ++events;
  }
  EXPECT_GE(events, 1u);
  EXPECT_EQ(last_status, "done");

  // An unknown job id is rejected up front, not silently streamed.
  Client bad(socket);
  json::Value bad_req = verb("watch");
  bad_req.set("id", std::uint64_t{999});
  EXPECT_FALSE(bad.request(bad_req).at("ok").as_bool());
}

// --- kill -9 soak -----------------------------------------------------------

// Runs the server in a forked child over `state_dir` (the child never
// returns through gtest: it _exits).
pid_t spawn_server(const std::string& state_dir, const std::string& socket) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    ServerConfig cfg;
    cfg.state_dir = state_dir;
    cfg.socket_path = socket;
    cfg.max_concurrent_jobs = 2;
    cfg.log = [](const std::string&) {};
    std::size_t unfinished = 1;
    try {
      unfinished = run_server(cfg);
    } catch (...) {
      ::_exit(2);
    }
    ::_exit(unfinished == 0 ? 0 : 3);
  }
  for (int i = 0; i < 250 && !server_alive(socket); ++i)
    ::usleep(20 * 1000);
  return pid;
}

void submit_soak_jobs(const std::string& socket) {
  Client client(socket);
  for (const JobSpec& spec : {
           [] {  // MC: big enough (~1.5 s) to straddle several kills
             JobSpec s = small_mc_spec();
             s.gadget.gadget = "recovery";
             s.gadget.scenario.code = "rm15";
             s.mc.trials = 80000;
             s.mc.block = 1024;
             return s;
           }(),
           [] {  // campaign with shrinking work per item
             JobSpec s = small_campaign_spec();
             s.campaign.budget = 1200;
             return s;
           }(),
           small_fuzz_spec(),
       }) {
    json::Value req = verb("submit");
    req.set("job", spec.to_json_value());
    ASSERT_TRUE(client.request(req).at("ok").as_bool());
  }
}

void finish_and_reap(pid_t pid, const std::string& socket) {
  {
    Client client(socket);
    json::Value req = verb("shutdown");
    req.set("mode", "finish");
    ASSERT_TRUE(client.request(req).at("ok").as_bool());
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  ASSERT_EQ(WEXITSTATUS(wstatus), 0);
}

TEST(Soak, Kill9MidFlightResumesToByteIdenticalReports) {
  // Short socket paths: sun_path is only ~108 bytes and TempDir may sit
  // under a deep build path.
  const std::string sock_a = "/tmp/eqc-soak-a-" + std::to_string(::getpid());
  const std::string sock_b = "/tmp/eqc-soak-b-" + std::to_string(::getpid());

  // Baseline: the same three jobs, uninterrupted.
  TempDir baseline_dir("soak-baseline");
  {
    const pid_t pid = spawn_server(baseline_dir.path, sock_a);
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(server_alive(sock_a));
    submit_soak_jobs(sock_a);
    finish_and_reap(pid, sock_a);
  }
  std::vector<std::string> reference;
  for (int i = 0; i < 3; ++i) {
    reference.push_back(
        slurp(baseline_dir.file("job-" + std::to_string(i) + ".report.json")));
    ASSERT_FALSE(reference.back().empty()) << "baseline job " << i;
  }

  // Soak: submit once, then kill -9 / restart at randomized points.
  TempDir dir("soak-killed");
  pid_t pid = spawn_server(dir.path, sock_b);
  ASSERT_GT(pid, 0);
  ASSERT_TRUE(server_alive(sock_b));
  submit_soak_jobs(sock_b);

  Rng rng(1234);
  for (int cycle = 0; cycle < 4; ++cycle) {
    ::usleep(static_cast<useconds_t>((50 + rng.below(250)) * 1000));
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));
    pid = spawn_server(dir.path, sock_b);  // recovery resumes the jobs
    ASSERT_GT(pid, 0);
    ASSERT_TRUE(server_alive(sock_b));
  }
  finish_and_reap(pid, sock_b);

  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(
        slurp(dir.file("job-" + std::to_string(i) + ".report.json")),
        reference[static_cast<std::size_t>(i)])
        << "job " << i << " diverged after kill -9 resume";
  }
  ::unlink(sock_a.c_str());
  ::unlink(sock_b.c_str());
}

}  // namespace
}  // namespace eqc::serve
