// eqc_fuzz — cross-backend differential + metamorphic fuzzing of the
// simulator pair (dense state vector vs CHP stabilizer tableau).
//
// Usage:
//   eqc_fuzz [options]
//
// Options:
//   --gateset G       clifford | clifford-cc | clifford-t | frames
//                     (default clifford; frames runs the frame-vs-trial
//                     differential oracle against the batch frame engine)
//   --qubits N        register width (default 5)
//   --depth D         op-slot budget per generated circuit (default 40)
//   --seed S          master seed (default 1)
//   --trials T        number of trials (default 200)
//   --jobs N          worker threads; never changes the report (default 1)
//   --time-budget SEC wall-clock cap; 0 = none.  A time-boxed run is the
//                     only mode whose report is not byte-reproducible.
//   --measure-prob P  per-slot measurement probability in the measured
//                     circuit (default 0.15; 0 disables measured trials)
//   --tol T           comparison tolerance (default 1e-7)
//   --no-shrink       skip delta-debugging of failing circuits
//   --plant-bug B     none | s-inverted | cnot-reversed | cz-dropped |
//                     ccz-wrong-pair | frame-cnot-swapped — deliberately
//                     defective tableau backend or frame engine (harness
//                     self-test)
//   --json OUT        write the full JSON report to OUT
//   --corpus DIR      write one JSON artifact + regression snippet per
//                     failure into DIR (must exist)
//   --replay FILE     replay one failure artifact; exit 0 iff it still fails
//   --trace-out OUT   collect scoped spans, write Chrome trace-event JSON
//   --metrics-out OUT write the obs metrics snapshot; its "metrics"
//                     section is byte-identical across --jobs values
//
// Exit status: 0 = no failures (or replay reproduced), 1 = failures found
// (or replay did NOT reproduce), 2 = usage / runtime error, 3 = interrupted
// by SIGINT/SIGTERM — the JSON report / corpus written so far is flushed
// and (with --checkpoint) the run is resumable via --resume.
//
// Examples:
//   eqc_fuzz --gateset clifford-cc --trials 500 --jobs 4
//   eqc_fuzz --plant-bug s-inverted --trials 50 --corpus corpus/
//   eqc_fuzz --replay corpus/failure-0.json
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "testing/fuzz.h"

using namespace eqc;

namespace {

/// Exit code for a cooperative SIGINT/SIGTERM stop with flushed artifacts.
constexpr int kExitInterrupted = 3;

std::atomic<bool> g_stop{false};

void install_stop_handlers() {
  struct sigaction sa {};
  sa.sa_handler = [](int) { g_stop.store(true); };
  sa.sa_flags = SA_RESETHAND;  // a second signal kills the default way
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

struct Options {
  testing::FuzzConfig cfg;
  std::string json_out;
  std::string corpus_dir;
  std::string replay;
  std::string trace_out;
  std::string metrics_out;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: eqc_fuzz [--gateset clifford|clifford-cc|clifford-t|frames]\n"
      "       [--qubits N] [--depth D] [--seed S] [--trials T] [--jobs N]\n"
      "       [--time-budget SEC] [--measure-prob P] [--tol T] [--no-shrink]\n"
      "       [--plant-bug B] [--checkpoint FILE] [--resume]\n"
      "       [--json OUT] [--corpus DIR] [--replay FILE]\n"
      "       [--trace-out OUT] [--metrics-out OUT]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        usage();
      }
      return argv[++i];
    };
    if (arg == "--gateset")
      opt.cfg.gate_set = testing::gate_set_from_string(next("--gateset"));
    else if (arg == "--qubits")
      opt.cfg.qubits = std::strtoull(next("--qubits"), nullptr, 10);
    else if (arg == "--depth")
      opt.cfg.depth = std::strtoull(next("--depth"), nullptr, 10);
    else if (arg == "--seed")
      opt.cfg.seed = std::strtoull(next("--seed"), nullptr, 10);
    else if (arg == "--trials")
      opt.cfg.trials = std::strtoull(next("--trials"), nullptr, 10);
    else if (arg == "--jobs") {
      const auto jobs = parallel::parse_jobs(next("--jobs"));
      if (!jobs) {
        std::fprintf(stderr,
                     "eqc_fuzz: error: --jobs must be an integer in "
                     "[0, %u]\n",
                     parallel::kMaxJobs);
        std::exit(2);
      }
      opt.cfg.jobs = *jobs;
    } else if (arg == "--time-budget")
      opt.cfg.time_budget_sec = std::atof(next("--time-budget"));
    else if (arg == "--measure-prob")
      opt.cfg.measure_prob = std::atof(next("--measure-prob"));
    else if (arg == "--tol")
      opt.cfg.tol = std::atof(next("--tol"));
    else if (arg == "--no-shrink")
      opt.cfg.shrink = false;
    else if (arg == "--checkpoint")
      opt.cfg.checkpoint_path = next("--checkpoint");
    else if (arg == "--resume")
      opt.cfg.resume = true;
    else if (arg == "--plant-bug")
      opt.cfg.bug = testing::bug_from_string(next("--plant-bug"));
    else if (arg == "--json")
      opt.json_out = next("--json");
    else if (arg == "--corpus")
      opt.corpus_dir = next("--corpus");
    else if (arg == "--replay")
      opt.replay = next("--replay");
    else if (arg == "--trace-out")
      opt.trace_out = next("--trace-out");
    else if (arg == "--metrics-out")
      opt.metrics_out = next("--metrics-out");
    else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage();
    }
  }
  return opt;
}

int run_replay(const Options& opt) {
  std::ifstream in(opt.replay, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read artifact: %s\n", opt.replay.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto artifact =
      testing::FailureArtifact::from_json(json::Value::parse(ss.str()));
  std::printf("replaying %s oracle (gate set %s, seed %llu, bug %s) on a "
              "%zu-qubit, %zu-op circuit...\n",
              artifact.oracle.c_str(), artifact.gate_set.c_str(),
              static_cast<unsigned long long>(artifact.oracle_seed),
              artifact.bug.c_str(), artifact.circuit.num_qubits(),
              artifact.circuit.size());
  const bool reproduced = testing::replay_failure(artifact);
  std::printf("replay: %s\n",
              reproduced ? "fails (reproduced)" : "NO LONGER FAILS");
  return reproduced ? 0 : 1;
}

void write_corpus(const testing::FuzzReport& report, const std::string& dir) {
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    const auto& f = report.failures[i];
    const std::string base = dir + "/failure-" + std::to_string(i);
    {
      std::ofstream out(base + ".json", std::ios::binary | std::ios::trunc);
      out << f.to_json_value().dump();
    }
    {
      std::ofstream out(base + ".cc.txt", std::ios::binary | std::ios::trunc);
      out << f.regression_snippet();
    }
  }
  std::printf("corpus: %zu artifact(s) written to %s/\n",
              report.failures.size(), dir.c_str());
}

int run(Options opt) {
  if (!opt.replay.empty()) return run_replay(opt);
  opt.cfg.stop = &g_stop;

  std::printf("eqc_fuzz: gate set %s, %zu qubits, depth %zu, %llu trials, "
              "seed %llu, %u jobs%s\n",
              to_string(opt.cfg.gate_set), opt.cfg.qubits, opt.cfg.depth,
              static_cast<unsigned long long>(opt.cfg.trials),
              static_cast<unsigned long long>(opt.cfg.seed), opt.cfg.jobs,
              opt.cfg.bug == testing::PlantedBug::None
                  ? ""
                  : " [PLANTED BUG]");
  const auto report = testing::run_fuzz(opt.cfg);

  std::printf("%llu/%llu trials run%s, %llu oracle evaluations, "
              "%zu failure(s)\n",
              static_cast<unsigned long long>(report.trials_run),
              static_cast<unsigned long long>(opt.cfg.trials),
              report.time_limited ? " (time budget hit)" : "",
              static_cast<unsigned long long>(report.oracle_runs),
              report.failures.size());
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    const auto& f = report.failures[i];
    std::printf("  #%zu %s (trial %llu): %zu ops (from %zu) on %zu qubits\n"
                "      %s\n",
                i, f.oracle.c_str(),
                static_cast<unsigned long long>(f.trial), f.circuit.size(),
                f.original_ops, f.circuit.num_qubits(), f.detail.c_str());
  }

  if (!opt.json_out.empty()) {
    std::ofstream out(opt.json_out, std::ios::binary | std::ios::trunc);
    out << report.to_json();
    std::printf("report written to %s\n", opt.json_out.c_str());
  }
  if (!opt.corpus_dir.empty() && !report.failures.empty())
    write_corpus(report, opt.corpus_dir);

  if (report.interrupted) {
    std::printf("interrupted after %llu trial(s)%s\n",
                static_cast<unsigned long long>(report.trials_run),
                opt.cfg.checkpoint_path.empty()
                    ? ""
                    : "; checkpoint flushed — resume with --resume");
    return kExitInterrupted;
  }
  return report.failures.empty() ? 0 : 1;
}

// Writes --trace-out / --metrics-out even on an interrupted or failed
// run: a partial trace is exactly what a stall diagnosis needs.
int write_obs_outputs(const Options& opt, int rc) {
  if (!opt.trace_out.empty()) {
    if (!obs::write_trace_file(opt.trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
      return 2;
    }
    std::printf("trace written to %s\n", opt.trace_out.c_str());
  }
  if (!opt.metrics_out.empty()) {
    if (!obs::write_metrics_file(opt.metrics_out)) {
      std::fprintf(stderr, "cannot write %s\n", opt.metrics_out.c_str());
      return 2;
    }
    std::printf("metrics written to %s\n", opt.metrics_out.c_str());
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  // parse() stays inside the try: bad --gateset / --plant-bug values throw
  // and must exit 2, not terminate.
  try {
    Options opt = parse(argc, argv);
    install_stop_handlers();
    if (!opt.trace_out.empty()) obs::install_trace_sink();
    if (!opt.metrics_out.empty()) obs::enable_timing(true);
    const Options obs_opt = opt;  // run() consumes opt
    return write_obs_outputs(obs_opt, run(std::move(opt)));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eqc_fuzz: error: %s\n", e.what());
    return 2;
  }
}
