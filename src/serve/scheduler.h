// Crash-safe job scheduler: the heart of eqc_serve.
//
// Jobs are journaled to a write-ahead log BEFORE they are acted on
// (journal-first), run on a small pool of job workers (each job gets its
// own engine-level worker budget), and checkpoint their progress through
// the engines' resumable run loops.  The scheduler's entire state is
// reconstructible from (journal, per-job checkpoint files): after a
// kill -9 a new Scheduler over the same state directory re-enqueues every
// unfinished job and resumes it from its checkpoint, reaching a final
// report BYTE-IDENTICAL to an uninterrupted run.
//
// State directory layout:
//   <dir>/journal.jsonl            write-ahead event log
//   <dir>/job-<id>.checkpoint.json per-job engine progress log
//   <dir>/job-<id>.report.json     final report (atomic, complete jobs only)
//
// Lifecycle events (journal "event" member):
//   submit    spec accepted, id assigned        (non-terminal)
//   start     a run attempt began               (non-terminal)
//   cancel    cancellation requested            (non-terminal)
//   done      report written                    (terminal)
//   failed    run threw; error recorded         (terminal)
//   cancelled cancel honoured, job will not run (terminal)
//
// A drain (SIGTERM / shutdown) deliberately writes NO terminal event for
// interrupted jobs: on the next start they are re-enqueued and resumed.
// A journal record of "cancel" with no terminal event is honoured at
// recovery (the job becomes cancelled without running again).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/checkpoint.h"
#include "common/json.h"
#include "serve/jobs.h"

namespace eqc::serve {

enum class JobStatus { Queued, Running, Done, Failed, Cancelled };

const char* to_string(JobStatus status);

struct SchedulerConfig {
  /// Directory holding the journal, checkpoints and reports (must exist).
  std::string state_dir;
  /// Jobs run concurrently (each with its own engine worker budget).
  unsigned max_concurrent_jobs = 2;
  /// Optional line logger (recovery summaries, quarantines); may be null.
  std::function<void(const std::string&)> log;
};

class Scheduler {
 public:
  /// Opens (or creates) the state directory's journal, replays it, and
  /// re-enqueues every unfinished job.  A damaged journal is quarantined
  /// to journal.jsonl.corrupt and the scheduler starts fresh.
  explicit Scheduler(SchedulerConfig cfg);
  /// Drains and joins (running jobs stop cooperatively at the next
  /// checkpoint boundary; no terminal events are written for them).
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Journals and enqueues a job; returns its id.
  std::uint64_t submit(const JobSpec& spec);

  /// Requests cancellation; true when the job exists and was not already
  /// terminal.  A queued job is cancelled without running; a running job
  /// stops at its next poll and flushes a final checkpoint.
  bool cancel(std::uint64_t id);

  /// Status of one job as a JSON object; null Value when unknown.
  json::Value status(std::uint64_t id) const;
  /// Status of every known job, ordered by id.
  json::Value status_all() const;

  /// Jobs not yet terminal (queued + running) — the "resumable work left"
  /// count a draining server reports through its exit code.
  std::size_t unfinished() const;

  /// Blocks until no job is queued or running, or `timeout_sec` elapses
  /// (<= 0 waits forever).  True when idle was reached.
  bool wait_idle(double timeout_sec) const;

  /// Cooperative shutdown: stops accepting queue progress, signals every
  /// running job's stop token, and joins the workers.  Interrupted jobs
  /// keep their checkpoints and journal entries and resume on the next
  /// Scheduler over this state directory.  Idempotent.
  void drain();

  const std::string& state_dir() const { return cfg_.state_dir; }

 private:
  struct Record {
    JobSpec spec;
    JobStatus status = JobStatus::Queued;
    bool cancel_requested = false;
    std::string error;
    JobProgress progress;
    double wall_sec = 0.0;  ///< accumulated across COMPLETED run attempts
    /// Start of the in-flight attempt (valid while status == Running);
    /// lets status() report live elapsed/rate/ETA mid-attempt.
    std::chrono::steady_clock::time_point attempt_start{};
    std::shared_ptr<std::atomic<bool>> stop;  ///< set while running
  };

  std::string checkpoint_path(std::uint64_t id) const;
  std::string report_path(std::uint64_t id) const;
  void recover_locked(const std::vector<json::Value>& records);
  void worker_loop();
  /// Runs one job attempt; called with the lock HELD, drops it while the
  /// engine runs.
  void run_one_locked(std::unique_lock<std::mutex>& lock, std::uint64_t id);
  json::Value status_locked(std::uint64_t id, const Record& rec) const;

  SchedulerConfig cfg_;
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::unique_ptr<Journal> journal_;
  std::map<std::uint64_t, Record> jobs_;
  std::deque<std::uint64_t> pending_;
  std::uint64_t next_id_ = 0;
  unsigned running_ = 0;
  bool draining_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace eqc::serve
