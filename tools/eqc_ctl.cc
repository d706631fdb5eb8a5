// eqc_ctl — control-plane client for eqc_serve.
//
// Usage:
//   eqc_ctl --socket PATH <verb> [args]
//
// Verbs:
//   ping                 server liveness + unfinished-job count
//   submit FILE...       submit job spec file(s) ("-" reads stdin);
//                        prints one assigned id per spec
//   status [ID] [--json] show all jobs (or one); --json dumps raw JSON.
//                        Rows include elapsed time, items/sec and an ETA
//                        while a job runs.
//   cancel ID            request cooperative cancellation
//   wait ID [--timeout SEC]
//                        follow the job until it is terminal.  Prefers the
//                        server's streaming `watch` verb (live progress
//                        lines with throughput and ETA, ~1/s) and falls
//                        back to status polling when the stream ends, so a
//                        server restart mid-wait is fine.
//   metrics [--json]     dump the server's observability snapshot (journal
//                        append latencies, queue depth, scheduler gauges)
//   shutdown [--finish]  drain and exit the server; --finish runs the
//                        queue dry first
//
// Job spec examples (one JSON object per file):
//   {"type":"campaign","gadget":"ngate","k":2,"budget":2000,"jobs":4}
//   {"type":"mc","gadget":"recovery","p":1e-3,"trials":20000,"jobs":4}
//   {"type":"fuzz","gateset":"clifford-cc","trials":500,"jobs":4}
//
// Exit status: 0 = success (wait: job done); 1 = negative outcome (wait:
// job failed/cancelled, cancel: nothing cancelled); 2 = usage, transport
// or server error (wait: timeout).
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_args.h"
#include "serve/protocol.h"

using namespace eqc;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: eqc_ctl --socket PATH <verb> [args]\n"
               "verbs: ping | submit FILE... | status [ID] [--json] |\n"
               "       cancel ID | wait ID [--timeout SEC] |\n"
               "       metrics [--json] | shutdown [--finish]\n");
  std::exit(2);
}

json::Value request(const std::string& socket_path, const json::Value& req) {
  serve::Client client(socket_path);
  return client.request(req);
}

/// Unwraps {"ok":...} responses; throws on ok == false.
json::Value require_ok(json::Value resp) {
  const json::Value* ok = resp.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
    const json::Value* err = resp.find("error");
    throw std::runtime_error(err != nullptr && err->is_string()
                                 ? err->as_string()
                                 : "malformed server response");
  }
  return resp;
}

// Renders "  1234.5 items/s  eta 42s" from the status fields the server
// added in schema with elapsed_sec/rate_per_sec/eta_sec; older servers
// without them simply print nothing extra.
void print_throughput(const json::Value& job) {
  const json::Value* rate = job.find("rate_per_sec");
  if (rate != nullptr && rate->as_double() > 0.0)
    std::printf("  %.1f items/s", rate->as_double());
  if (const json::Value* eta = job.find("eta_sec"))
    std::printf("  eta %.0fs", eta->as_double());
}

void print_job(const json::Value& job) {
  const json::Value* counter = job.find("counter");
  std::printf("job %llu  %-8s %-9s %llu/%llu items",
              static_cast<unsigned long long>(job.at("id").as_u64()),
              job.at("type").as_string().c_str(),
              job.at("status").as_string().c_str(),
              static_cast<unsigned long long>(job.at("items_done").as_u64()),
              static_cast<unsigned long long>(job.at("total_items").as_u64()));
  if (counter != nullptr) {
    const json::Value* failures = counter->find("failures");
    if (failures != nullptr)
      std::printf("  failures %llu",
                  static_cast<unsigned long long>(failures->as_u64()));
  }
  const json::Value* elapsed = job.find("elapsed_sec");
  std::printf("  elapsed %.1fs", elapsed != nullptr
                                     ? elapsed->as_double()
                                     : job.at("wall_sec").as_double());
  print_throughput(job);
  if (const json::Value* err = job.find("error"))
    std::printf("  error: %s", err->as_string().c_str());
  if (const json::Value* report = job.find("report"))
    std::printf("  report: %s", report->as_string().c_str());
  std::printf("\n");
}

int cmd_ping(const std::string& socket_path) {
  json::Object req;
  req.emplace_back("verb", "ping");
  const json::Value resp = require_ok(request(socket_path, std::move(req)));
  std::printf("ok: %llu unfinished job(s)\n",
              static_cast<unsigned long long>(resp.at("unfinished").as_u64()));
  return 0;
}

int cmd_submit(const std::string& socket_path,
               const std::vector<std::string>& files) {
  if (files.empty()) usage();
  for (const auto& file : files) {
    std::string text;
    if (file == "-") {
      std::ostringstream ss;
      ss << std::cin.rdbuf();
      text = ss.str();
    } else {
      std::ifstream in(file, std::ios::binary);
      if (!in.good()) {
        std::fprintf(stderr, "cannot read spec: %s\n", file.c_str());
        return 2;
      }
      std::ostringstream ss;
      ss << in.rdbuf();
      text = ss.str();
    }
    json::Object req;
    req.emplace_back("verb", "submit");
    req.emplace_back("job", json::Value::parse(text));
    const json::Value resp = require_ok(request(socket_path, std::move(req)));
    std::printf("submitted %s as job %llu\n", file.c_str(),
                static_cast<unsigned long long>(resp.at("id").as_u64()));
  }
  return 0;
}

int cmd_status(const std::string& socket_path,
               std::optional<std::uint64_t> id, bool raw) {
  json::Object req;
  req.emplace_back("verb", "status");
  if (id) req.emplace_back("id", *id);
  const json::Value resp = require_ok(request(socket_path, std::move(req)));
  const json::Value& jobs = resp.at("jobs");
  if (raw) {
    std::printf("%s\n", jobs.dump().c_str());
    return 0;
  }
  if (jobs.as_array().empty()) std::printf("no jobs\n");
  for (const auto& job : jobs.as_array()) print_job(job);
  return 0;
}

int cmd_cancel(const std::string& socket_path, std::uint64_t id) {
  json::Object req;
  req.emplace_back("verb", "cancel");
  req.emplace_back("id", id);
  const json::Value resp = require_ok(request(socket_path, std::move(req)));
  const bool cancelled = resp.at("cancelled").as_bool();
  std::printf("%s\n", cancelled ? "cancellation requested"
                                : "job unknown or already terminal");
  return cancelled ? 0 : 1;
}

/// 0 = done, 1 = failed/cancelled, -1 = not terminal.
int terminal_code(const std::string& status) {
  if (status == "done") return 0;
  if (status == "failed" || status == "cancelled") return 1;
  return -1;
}

int cmd_wait(const std::string& socket_path, std::uint64_t id,
             double timeout_sec) {
  const auto start = std::chrono::steady_clock::now();
  auto timed_out = [&] {
    return timeout_sec > 0.0 &&
           std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
                   .count() >= timeout_sec;
  };
  std::string status = "unknown";
  // Prefer the streaming `watch` verb: the server pushes a progress event
  // about once a second, so `wait` renders live throughput without
  // hammering it with status polls.  Any stream failure drops to the old
  // reconnect-per-poll loop (old servers, watcher capacity, restarts).
  bool use_watch = true;
  for (;;) {
    if (use_watch) {
      try {
        serve::Client client(socket_path);
        json::Object req;
        req.emplace_back("verb", "watch");
        req.emplace_back("id", id);
        client.send(json::Value(std::move(req)));
        client.set_read_timeout(10.0);
        json::Value resp;
        while (!timed_out() && client.read_response(resp)) {
          const json::Value* ok = resp.find("ok");
          if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
            use_watch = false;  // unknown verb/job: don't retry the stream
            break;
          }
          const json::Value* job = resp.find("job");
          if (job == nullptr) continue;  // the {"watching":id} ack
          status = job->at("status").as_string();
          const int code = terminal_code(status);
          if (code >= 0) {
            std::printf("job %llu %s\n", static_cast<unsigned long long>(id),
                        status.c_str());
            return code;
          }
          std::printf(
              "job %llu %s %llu/%llu items",
              static_cast<unsigned long long>(id), status.c_str(),
              static_cast<unsigned long long>(job->at("items_done").as_u64()),
              static_cast<unsigned long long>(
                  job->at("total_items").as_u64()));
          print_throughput(*job);
          std::printf("\n");
          std::fflush(stdout);
        }
      } catch (const std::exception&) {
        // Server unreachable: fall through to the polling backoff below,
        // then try the stream again.
      }
    }
    if (timed_out()) {
      std::fprintf(stderr, "wait: timed out after %.0fs (last status: %s)\n",
                   timeout_sec, status.c_str());
      return 2;
    }
    // Reconnect per poll: a draining/restarting server between polls is
    // expected during rolling restarts, not an error.
    try {
      json::Object req;
      req.emplace_back("verb", "status");
      req.emplace_back("id", id);
      const json::Value resp =
          require_ok(request(socket_path, std::move(req)));
      status = resp.at("jobs").as_array().at(0).at("status").as_string();
    } catch (const std::exception&) {
      status = "unreachable";
    }
    const int code = terminal_code(status);
    if (code >= 0) {
      std::printf("job %llu %s\n", static_cast<unsigned long long>(id),
                  status.c_str());
      return code;
    }
    ::usleep(200 * 1000);
  }
}

int cmd_metrics(const std::string& socket_path, bool raw) {
  json::Object req;
  req.emplace_back("verb", "metrics");
  const json::Value resp = require_ok(request(socket_path, std::move(req)));
  const json::Value& snap = resp.at("metrics");
  if (raw) {
    std::printf("%s\n", snap.dump().c_str());
    return 0;
  }
  for (const char* section : {"metrics", "runtime"}) {
    const json::Value& s = snap.at(section);
    std::printf("%s:\n", section);
    for (const auto& [name, v] : s.at("counters").as_object())
      std::printf("  %-40s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(v.as_u64()));
    for (const auto& [name, v] : s.at("gauges").as_object())
      std::printf("  %-40s %lld\n", name.c_str(),
                  static_cast<long long>(v.as_i64()));
    for (const auto& [name, v] : s.at("histograms").as_object()) {
      const std::uint64_t n = v.at("count").as_u64();
      const double sum = v.at("sum").as_double();
      std::printf("  %-40s n=%llu  mean %.3f ms\n", name.c_str(),
                  static_cast<unsigned long long>(n),
                  n > 0 ? sum / static_cast<double>(n) : 0.0);
    }
  }
  return 0;
}

int cmd_shutdown(const std::string& socket_path, bool finish) {
  json::Object req;
  req.emplace_back("verb", "shutdown");
  req.emplace_back("mode", finish ? "finish" : "checkpoint");
  require_ok(request(socket_path, std::move(req)));
  std::printf("shutdown requested (%s)\n", finish ? "finish" : "checkpoint");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket") {
      if (i + 1 >= argc) usage();
      socket_path = argv[++i];
    } else {
      args.push_back(arg);
    }
  }
  if (socket_path.empty() || args.empty()) usage();
  const std::string verb = args[0];
  args.erase(args.begin());

  try {
    if (verb == "ping") return cmd_ping(socket_path);
    if (verb == "submit") return cmd_submit(socket_path, args);
    if (verb == "status") {
      std::optional<std::uint64_t> id;
      bool raw = false;
      for (const auto& a : args) {
        if (a == "--json")
          raw = true;
        else
          id = cli::u64_arg("eqc_ctl", "job ID", a.c_str());
      }
      return cmd_status(socket_path, id, raw);
    }
    if (verb == "cancel") {
      if (args.size() != 1) usage();
      return cmd_cancel(socket_path,
                        cli::u64_arg("eqc_ctl", "job ID", args[0].c_str()));
    }
    if (verb == "wait") {
      double timeout = 0.0;
      std::uint64_t id = 0;
      bool have_id = false;
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--timeout" && i + 1 < args.size()) {
          timeout = cli::double_arg("eqc_ctl", "--timeout", args[++i].c_str());
        } else {
          id = cli::u64_arg("eqc_ctl", "job ID", args[i].c_str());
          have_id = true;
        }
      }
      if (!have_id) usage();
      return cmd_wait(socket_path, id, timeout);
    }
    if (verb == "metrics") {
      const bool raw = !args.empty() && args[0] == "--json";
      return cmd_metrics(socket_path, raw);
    }
    if (verb == "shutdown") {
      const bool finish = !args.empty() && args[0] == "--finish";
      return cmd_shutdown(socket_path, finish);
    }
    usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eqc_ctl: error: %s\n", e.what());
    return 2;
  }
}
