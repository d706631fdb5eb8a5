#include "serve/scheduler.h"

#include <chrono>
#include <utility>

#include "common/assert.h"
#include "common/checkpoint.h"
#include "obs/metrics.h"

namespace eqc::serve {

using Clock = std::chrono::steady_clock;

namespace {

obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g =
      obs::gauge("serve.scheduler.queue_depth", obs::Det::Runtime);
  return g;
}
obs::Gauge& running_gauge() {
  static obs::Gauge& g =
      obs::gauge("serve.scheduler.jobs_running", obs::Det::Runtime);
  return g;
}

}  // namespace

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::Queued:
      return "queued";
    case JobStatus::Running:
      return "running";
    case JobStatus::Done:
      return "done";
    case JobStatus::Failed:
      return "failed";
    case JobStatus::Cancelled:
      return "cancelled";
  }
  return "?";
}

namespace {

struct ReplayedJob {
  JobSpec spec;
  JobStatus status = JobStatus::Queued;
  bool cancel_requested = false;
  std::string error;
};

/// Reconstructs job states from journal records.  Throws CheckpointCorrupt
/// on semantic damage (events for unknown jobs, duplicate submits,
/// unparseable specs) — everything the append protocol cannot produce.
std::map<std::uint64_t, ReplayedJob> replay_records(
    const std::vector<json::Value>& records) {
  std::map<std::uint64_t, ReplayedJob> jobs;
  for (const auto& rec : records) {
    std::string event;
    std::uint64_t id = 0;
    try {
      event = rec.at("event").as_string();
      id = rec.at("id").as_u64();
    } catch (const json::JsonError& e) {
      throw CheckpointCorrupt(std::string("journal replay: ") + e.what());
    }
    if (event == "submit") {
      if (jobs.count(id) != 0)
        throw CheckpointCorrupt("journal replay: duplicate submit");
      ReplayedJob job;
      try {
        job.spec = JobSpec::from_json(rec.at("spec"));
      } catch (const std::exception& e) {
        throw CheckpointCorrupt(std::string("journal replay: bad spec: ") +
                                e.what());
      }
      jobs.emplace(id, std::move(job));
      continue;
    }
    const auto it = jobs.find(id);
    if (it == jobs.end())
      throw CheckpointCorrupt("journal replay: event for unknown job");
    if (event == "start") {
      // A run attempt began; without a terminal event the job is still
      // pending and will resume from its checkpoint.
    } else if (event == "cancel") {
      it->second.cancel_requested = true;
    } else if (event == "done") {
      it->second.status = JobStatus::Done;
    } else if (event == "failed") {
      it->second.status = JobStatus::Failed;
      if (const json::Value* err = rec.find("error"); err && err->is_string())
        it->second.error = err->as_string();
    } else if (event == "cancelled") {
      it->second.status = JobStatus::Cancelled;
    } else {
      throw CheckpointCorrupt("journal replay: unknown event");
    }
  }
  return jobs;
}

bool is_terminal(JobStatus status) {
  return status == JobStatus::Done || status == JobStatus::Failed ||
         status == JobStatus::Cancelled;
}

json::Value event_record(const char* event, std::uint64_t id) {
  json::Object obj;
  obj.emplace_back("event", event);
  obj.emplace_back("id", id);
  return json::Value(std::move(obj));
}

}  // namespace

std::string Scheduler::checkpoint_path(std::uint64_t id) const {
  return cfg_.state_dir + "/job-" + std::to_string(id) + ".checkpoint.json";
}

std::string Scheduler::report_path(std::uint64_t id) const {
  return cfg_.state_dir + "/job-" + std::to_string(id) + ".report.json";
}

Scheduler::Scheduler(SchedulerConfig cfg) : cfg_(std::move(cfg)) {
  EQC_EXPECTS(!cfg_.state_dir.empty());
  if (cfg_.max_concurrent_jobs == 0) cfg_.max_concurrent_jobs = 1;
  const std::string journal_path = cfg_.state_dir + "/journal.jsonl";

  auto log = [this](const std::string& line) {
    if (cfg_.log) cfg_.log(line);
  };
  std::vector<json::Value> records;
  std::map<std::uint64_t, ReplayedJob> replayed;
  JournalLoadStats load_stats;
  try {
    records = Journal::load(journal_path, &load_stats);
    replayed = replay_records(records);
  } catch (const CheckpointCorrupt& e) {
    // Damage the append protocol cannot produce: keep the evidence aside
    // and start a fresh history.  Reports already written stay on disk.
    const std::string quarantined = quarantine_corrupt_file(journal_path);
    log("journal: corrupt (" + std::string(e.what()) + "); quarantined to " +
        (quarantined.empty() ? std::string("<unlinked>") : quarantined) +
        ", starting fresh");
    obs::counter("serve.journal.quarantined", obs::Det::Runtime).add(1);
    records.clear();
    replayed.clear();
    load_stats = JournalLoadStats{};
  }
  if (load_stats.records > 0 || load_stats.torn_bytes > 0) {
    std::string line =
        "journal: replayed " + std::to_string(load_stats.records) +
        " record(s)";
    if (load_stats.torn_bytes > 0)
      line += ", dropped " + std::to_string(load_stats.torn_bytes) +
              " torn tail byte(s)";
    log(line);
  }
  obs::counter("serve.journal.recovered_records", obs::Det::Runtime)
      .add(load_stats.records);
  obs::counter("serve.journal.torn_bytes_dropped", obs::Det::Runtime)
      .add(load_stats.torn_bytes);
  // The journal cuts a torn tail off before its first append.
  journal_ = std::make_unique<Journal>(journal_path, records.size(),
                                       "serve.journal.append");

  std::unique_lock<std::mutex> lock(mu_);
  for (auto& [id, job] : replayed) {
    Record rec;
    rec.spec = std::move(job.spec);
    rec.status = job.status;
    rec.cancel_requested = job.cancel_requested;
    rec.error = std::move(job.error);
    next_id_ = std::max(next_id_, id + 1);
    if (!is_terminal(rec.status) && rec.cancel_requested) {
      // A cancel was requested before the crash/drain; honour it now
      // instead of re-running work the user asked to stop.
      journal_->append(event_record("cancelled", id));
      rec.status = JobStatus::Cancelled;
    }
    const bool enqueue = !is_terminal(rec.status);
    jobs_.emplace(id, std::move(rec));
    if (enqueue) pending_.push_back(id);
  }
  queue_depth_gauge().set(static_cast<std::int64_t>(pending_.size()));

  for (unsigned i = 0; i < cfg_.max_concurrent_jobs; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

Scheduler::~Scheduler() { drain(); }

std::uint64_t Scheduler::submit(const JobSpec& spec) {
  std::lock_guard<std::mutex> lock(mu_);
  EQC_EXPECTS(!draining_);
  const std::uint64_t id = next_id_++;
  json::Value rec = event_record("submit", id);
  rec.set("spec", spec.to_json_value());
  journal_->append(std::move(rec));  // journal-first: no event, no job
  Record job;
  job.spec = spec;
  jobs_.emplace(id, std::move(job));
  pending_.push_back(id);
  queue_depth_gauge().set(static_cast<std::int64_t>(pending_.size()));
  cv_.notify_all();
  return id;
}

bool Scheduler::cancel(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end() || is_terminal(it->second.status)) return false;
  Record& rec = it->second;
  journal_->append(event_record("cancel", id));
  rec.cancel_requested = true;
  if (rec.status == JobStatus::Queued) {
    // Never started (or between attempts): terminal immediately.
    journal_->append(event_record("cancelled", id));
    rec.status = JobStatus::Cancelled;
  } else if (rec.stop) {
    rec.stop->store(true);  // running: the worker writes the terminal event
  }
  cv_.notify_all();
  return true;
}

void Scheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    cv_.wait(lock, [this] { return draining_ || !pending_.empty(); });
    if (draining_) return;
    const std::uint64_t id = pending_.front();
    pending_.pop_front();
    queue_depth_gauge().set(static_cast<std::int64_t>(pending_.size()));
    // The pop may have emptied the queue: wake wait_idle() even when the
    // job was cancelled while queued and never runs.
    cv_.notify_all();
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.status != JobStatus::Queued) continue;
    run_one_locked(lock, id);
    cv_.notify_all();
  }
}

void Scheduler::run_one_locked(std::unique_lock<std::mutex>& lock,
                               std::uint64_t id) {
  Record& rec = jobs_.at(id);  // map nodes are stable; never erased
  journal_->append(event_record("start", id));
  rec.status = JobStatus::Running;
  auto stop = std::make_shared<std::atomic<bool>>(false);
  rec.stop = stop;
  ++running_;
  running_gauge().set(running_);
  const JobSpec spec = rec.spec;
  const JobPaths paths{checkpoint_path(id), report_path(id)};
  const auto t0 = Clock::now();
  rec.attempt_start = t0;

  lock.unlock();
  JobOutcome outcome;
  bool threw = false;
  std::string error;
  try {
    outcome = run_job(spec, paths, stop.get(),
                      [this, id](const JobProgress& p) {
                        std::lock_guard<std::mutex> g(mu_);
                        const auto jt = jobs_.find(id);
                        if (jt != jobs_.end()) jt->second.progress = p;
                      });
  } catch (const std::exception& e) {
    threw = true;
    error = e.what();
  }
  lock.lock();

  rec.wall_sec += std::chrono::duration<double>(Clock::now() - t0).count();
  rec.stop.reset();
  --running_;
  running_gauge().set(running_);
  if (threw) {
    json::Value ev = event_record("failed", id);
    ev.set("error", error);
    journal_->append(std::move(ev));
    rec.status = JobStatus::Failed;
    rec.error = error;
  } else if (outcome.complete) {
    journal_->append(event_record("done", id));
    rec.status = JobStatus::Done;
  } else if (rec.cancel_requested) {
    journal_->append(event_record("cancelled", id));
    rec.status = JobStatus::Cancelled;
  } else {
    // Stopped by a drain: NO terminal event, so the next Scheduler over
    // this state directory re-enqueues and resumes from the checkpoint.
    rec.status = JobStatus::Queued;
    if (!draining_) {
      pending_.push_back(id);
      queue_depth_gauge().set(static_cast<std::int64_t>(pending_.size()));
    }
  }
}

// GCC 12's -Warray-bounds fires a false positive inside vector::emplace_back's
// reallocation path for pair<string, json::Value> once this function grew past
// the inliner's threshold (GCC PR 107852); the code is plain appends.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Warray-bounds"
#pragma GCC diagnostic ignored "-Wrestrict"
json::Value Scheduler::status_locked(std::uint64_t id,
                                     const Record& rec) const {
  json::Object obj;
  obj.reserve(14);
  obj.emplace_back("id", id);
  obj.emplace_back("type", json::Value(to_string(rec.spec.type)));
  obj.emplace_back("status", json::Value(to_string(rec.status)));
  obj.emplace_back("cancel_requested", rec.cancel_requested);
  obj.emplace_back("items_done", rec.progress.items_done);
  obj.emplace_back("total_items", rec.progress.total_items);
  obj.emplace_back("counter", rec.progress.counter.to_json_value());
  obj.emplace_back("wall_sec", rec.wall_sec);
  // Live view: elapsed includes the in-flight attempt; rate/ETA derive
  // from the progress counters (ETA only when the denominator is honest).
  double elapsed = rec.wall_sec;
  if (rec.status == JobStatus::Running)
    elapsed +=
        std::chrono::duration<double>(Clock::now() - rec.attempt_start).count();
  obj.emplace_back("elapsed_sec", elapsed);
  const double rate =
      elapsed > 0.0 ? static_cast<double>(rec.progress.items_done) / elapsed
                    : 0.0;
  obj.emplace_back("rate_per_sec", rate);
  if (rate > 0.0 && rec.progress.total_items > rec.progress.items_done &&
      !is_terminal(rec.status))
    obj.emplace_back(
        "eta_sec",
        static_cast<double>(rec.progress.total_items -
                            rec.progress.items_done) /
            rate);
  if (!rec.error.empty()) obj.emplace_back("error", rec.error);
  if (rec.status == JobStatus::Done)
    obj.emplace_back("report", report_path(id));
  return json::Value(std::move(obj));
}
#pragma GCC diagnostic pop

json::Value Scheduler::status(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return json::Value();
  return status_locked(id, it->second);
}

json::Value Scheduler::status_all() const {
  std::lock_guard<std::mutex> lock(mu_);
  json::Array arr;
  for (const auto& [id, rec] : jobs_) arr.push_back(status_locked(id, rec));
  return json::Value(std::move(arr));
}

std::size_t Scheduler::unfinished() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [id, rec] : jobs_)
    if (!is_terminal(rec.status)) ++n;
  return n;
}

bool Scheduler::wait_idle(double timeout_sec) const {
  std::unique_lock<std::mutex> lock(mu_);
  const auto idle = [this] { return pending_.empty() && running_ == 0; };
  if (timeout_sec <= 0.0) {
    cv_.wait(lock, idle);
    return true;
  }
  return cv_.wait_for(lock, std::chrono::duration<double>(timeout_sec), idle);
}

void Scheduler::drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_) return;
    draining_ = true;
    for (auto& [id, rec] : jobs_)
      if (rec.stop) rec.stop->store(true);
    cv_.notify_all();
  }
  for (auto& w : workers_) w.join();
  workers_.clear();
}

}  // namespace eqc::serve
