// eqc_serve — crash-safe job server for the library's long-running
// analyses (fault campaigns, Monte-Carlo failure-rate runs, differential
// fuzzing).
//
// Usage:
//   eqc_serve --state DIR [options]
//
// Options:
//   --state DIR     state directory (journal, checkpoints, reports);
//                   must exist.  REQUIRED.
//   --socket PATH   listening Unix socket (default DIR/serve.sock)
//   --max-jobs N    jobs run concurrently (default 2); each job brings
//                   its own engine worker budget ("jobs" in its spec)
//   --trace-out OUT   write a Chrome trace-event JSON of the server's
//                     spans on exit (the `metrics` verb serves live data)
//   --metrics-out OUT write the obs metrics snapshot on exit
//
// The server accepts JSON-line requests on the socket (see eqc_ctl),
// journals every job state transition to DIR/journal.jsonl BEFORE acting
// on it, and checkpoints running jobs to DIR/job-<id>.checkpoint.json.
// After a crash (kill -9 included) simply restart it over the same state
// directory: unfinished jobs resume from their checkpoints and their
// final reports are byte-identical to an uninterrupted run.
//
// SIGINT/SIGTERM drain cooperatively: running jobs stop at their next
// checkpoint boundary and stay resumable.
//
// Exit status: 0 = clean exit, no unfinished jobs; 2 = usage / setup
// error; 3 = drained with resumable jobs left (restart to resume them).
//
// Examples:
//   eqc_serve --state /var/tmp/eqc &
//   eqc_ctl --socket /var/tmp/eqc/serve.sock submit job.json
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cli_args.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"

using namespace eqc;

namespace {

constexpr int kExitDrained = 3;

std::atomic<bool> g_stop{false};

void install_stop_handlers() {
  // A second signal while draining kills the process the default way.
  struct sigaction sa {};
  sa.sa_handler = [](int) { g_stop.store(true); };
  sa.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: eqc_serve --state DIR [--socket PATH] [--max-jobs N]\n"
               "       [--trace-out OUT] [--metrics-out OUT]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServerConfig cfg;
  std::string trace_out;
  std::string metrics_out;
  cli::Args args("eqc_serve", argc, argv, 1, usage);
  for (std::string arg; args.flag(arg);) {
    if (arg == "--state")
      cfg.state_dir = args.text("--state");
    else if (arg == "--socket")
      cfg.socket_path = args.text("--socket");
    else if (arg == "--max-jobs")
      cfg.max_concurrent_jobs = args.jobs("--max-jobs");
    else if (arg == "--trace-out")
      trace_out = args.text("--trace-out");
    else if (arg == "--metrics-out")
      metrics_out = args.text("--metrics-out");
    else
      args.fail("unknown option: " + arg);
  }
  if (cfg.state_dir.empty()) args.fail("--state DIR is required");
  cfg.stop = &g_stop;
  install_stop_handlers();
  if (!trace_out.empty()) obs::install_trace_sink();
  // A daemon always times its latencies: the `metrics` verb serves the
  // journal/checkpoint histograms live, whatever flags it started with.
  obs::enable_timing(true);
  try {
    const std::size_t unfinished = serve::run_server(cfg);
    if (!trace_out.empty() && !obs::write_trace_file(trace_out))
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    if (!metrics_out.empty() && !obs::write_metrics_file(metrics_out))
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
    return unfinished == 0 ? 0 : kExitDrained;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eqc_serve: error: %s\n", e.what());
    return 2;
  }
}
