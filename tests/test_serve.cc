// Tests for the eqc_serve stack: the write-ahead journal's crash model
// (torn tails, truncation at every offset, byte corruption), job spec
// round-trips, the crash-safe scheduler (resume, cancellation, drain),
// the socket server, and the kill -9 soak harness proving resumed runs
// produce byte-identical final reports.
#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/assert.h"
#include "common/checkpoint.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "serve/jobs.h"
#include "serve/journal.h"
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

// --- journal ----------------------------------------------------------------

TEST(Journal, AppendLoadRoundTripsWithSequentialSeq) {
  TempDir dir("journal-roundtrip");
  const std::string path = dir.file("journal.jsonl");
  {
    Journal journal(path, 0);
    journal.append(event("submit", 0));
    journal.append(event("start", 0));
    journal.append(event("done", 0));
  }
  const auto records = Journal::load(path);
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i].at("seq").as_u64(), i);
  EXPECT_EQ(records[1].at("event").as_string(), "start");
}

TEST(Journal, AppendContinuesAnExistingHistory) {
  TempDir dir("journal-continue");
  const std::string path = dir.file("journal.jsonl");
  {
    Journal journal(path, 0);
    journal.append(event("submit", 0));
  }
  {
    const auto records = Journal::load(path);
    Journal journal(path, records.size());
    journal.append(event("done", 0));
  }
  const auto records = Journal::load(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].at("seq").as_u64(), 1u);
}

TEST(Journal, MissingFileLoadsEmpty) {
  TempDir dir("journal-missing");
  EXPECT_TRUE(Journal::load(dir.file("journal.jsonl")).empty());
}

TEST(Journal, TornTailIsDiscardedNotFatal) {
  TempDir dir("journal-torn");
  const std::string path = dir.file("journal.jsonl");
  {
    Journal journal(path, 0);
    journal.append(event("submit", 0));
    journal.append(event("start", 0));
  }
  // Simulate a crash mid-append: a fragment with no trailing newline.
  std::ofstream out(path, std::ios::binary | std::ios::app);
  out << R"({"seq":2,"event":"do)";
  out.close();
  const auto records = Journal::load(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].at("event").as_string(), "start");
}

TEST(Journal, LoadStatsReportRecordCountAndTornTailBytes) {
  TempDir dir("journal-stats");
  const std::string path = dir.file("journal.jsonl");
  {
    Journal journal(path, 0);
    journal.append(event("submit", 0));
    journal.append(event("start", 0));
  }
  const std::string fragment = R"({"seq":2,"event":"do)";
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << fragment;
  }
  JournalLoadStats stats;
  const auto records = Journal::load(path, &stats);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.torn_bytes, fragment.size());

  // A clean journal reports zero torn bytes.
  JournalLoadStats clean;
  parse_journal_text(R"({"seq":0,"event":"submit","id":0})"
                     "\n",
                     &clean);
  EXPECT_EQ(clean.records, 1u);
  EXPECT_EQ(clean.torn_bytes, 0u);
}

TEST(Journal, TruncationAtEveryByteOffsetNeverCrashes) {
  TempDir dir("journal-truncate");
  const std::string path = dir.file("journal.jsonl");
  {
    Journal journal(path, 0);
    journal.append(event("submit", 0));
    journal.append(event("start", 0));
    journal.append(event("cancel", 0));
    journal.append(event("cancelled", 0));
  }
  const std::string full = slurp(path);
  ASSERT_FALSE(full.empty());
  const auto complete = Journal::load(path);

  for (std::size_t len = 0; len <= full.size(); ++len) {
    const std::string trunc = full.substr(0, len);
    spit(path, trunc);
    // A truncated journal is a complete prefix of records plus at most a
    // torn tail: load() must return exactly the records whose full line
    // (including '\n') survived — never throw, never crash.
    std::vector<json::Value> records;
    ASSERT_NO_THROW(records = Journal::load(path)) << "offset " << len;
    std::size_t expected = 0;
    for (std::size_t i = 0; i < len; ++i)
      if (full[i] == '\n') ++expected;
    EXPECT_EQ(records.size(), expected) << "offset " << len;
  }
  spit(path, full);
  EXPECT_EQ(Journal::load(path).size(), complete.size());
}

TEST(Journal, SingleByteCorruptionIsCaughtOrHarmless) {
  TempDir dir("journal-corrupt");
  const std::string path = dir.file("journal.jsonl");
  {
    Journal journal(path, 0);
    journal.append(event("submit", 0));
    journal.append(event("start", 0));
    journal.append(event("done", 0));
  }
  const std::string full = slurp(path);
  Rng rng(2026);
  for (int i = 0; i < 200; ++i) {
    const std::size_t pos = rng.below(full.size());
    std::string damaged = full;
    damaged[pos] = static_cast<char>(rng.below(256));
    if (damaged == full) continue;
    spit(path, damaged);
    // Either the damage is syntactically harmless (e.g. inside a string)
    // or it must surface as the distinct CheckpointCorrupt — never a
    // crash, never a different exception type.
    try {
      (void)Journal::load(path);
    } catch (const CheckpointCorrupt&) {
      // expected for structural damage
    }
  }
}

TEST(Journal, OutOfOrderSeqIsCorrupt) {
  TempDir dir("journal-seq");
  const std::string path = dir.file("journal.jsonl");
  spit(path,
       "{\"seq\":0,\"event\":\"submit\",\"id\":0}\n"
       "{\"seq\":2,\"event\":\"done\",\"id\":0}\n");
  EXPECT_THROW((void)Journal::load(path), CheckpointCorrupt);
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
}

TEST(RunJob, McRevisionOneCheckpointIsRefusedAndNeverResumed) {
  const JobSpec spec = small_mc_spec();
  TempDir dir("runjob-mc-rev1");
  JobPaths paths{dir.file("ck.json"), dir.file("report.json")};
  std::atomic<bool> stop{false};
  (void)run_job(spec, paths, &stop, [&stop](const JobProgress& p) {
    if (p.items_done >= 300) stop.store(true);
  });

  // Stream revision 1 fingerprinted an MC checkpoint with the bare spec.
  json::Value doc = json::Value::parse(slurp(paths.checkpoint));
  doc.set("fingerprint", spec.to_json_value().dump());
  const std::string rev1 = doc.dump();
  spit(paths.checkpoint, rev1);

  EXPECT_THROW((void)run_job(spec, paths, nullptr, nullptr),
               ContractViolation);
  EXPECT_EQ(slurp(paths.checkpoint), rev1);
  EXPECT_TRUE(slurp(paths.report).empty());
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

TEST(Scheduler, DrainThenNewSchedulerResumesToByteIdenticalReport) {
  const JobSpec spec = [] {
    JobSpec s = small_mc_spec();
    s.mc.trials = 10000;
    return s;
  }();

  TempDir baseline_dir("sched-resume-baseline");
  {
    SchedulerConfig cfg;
    cfg.state_dir = baseline_dir.path;
    Scheduler sched(cfg);
    sched.submit(spec);
    // 10k trials run twice in this test; under ASan on a single core the
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
    Journal journal(dir.file("journal.jsonl"), 0);
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
           [] {  // MC: big enough to straddle several kills
             JobSpec s = small_mc_spec();
             s.mc.trials = 12000;
             s.mc.block = 128;
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
