// eqc_matrix — scenario-sweep driver: runs a gadget x (code, repetition k,
// noise) grid through the campaign (k-fault counting) or Monte-Carlo
// engine and emits a threshold-surface report with per-cell failure
// counters, Wilson 95% intervals and pseudo-threshold estimates.
//
// Usage:
//   eqc_matrix [options]
//
// Grid axes (comma-separated lists):
//   --gadgets LIST    default "ngate,recovery"
//   --codes LIST      default "steane,rm15"
//   --ks LIST         repetition parameters k, default "1,2"
//   --noises LIST     default "paper,correlated"
//
// Engine:
//   --mc P            Monte-Carlo mode at physical error rate P
//                     (default: campaign mode, k-fault counting)
//   --fault-k K       campaign fault-set size (default 2)
//   --budget B        fault sets (campaign) / trials (MC) per cell
//   --shrink          delta-debug malignant sets (campaign; slower)
//   --jobs N          worker threads per cell (never changes the report)
//   --seed S          sweep seed; per-cell seeds derive deterministically
//
// Persistence:
//   --checkpoint DIR  per-cell checkpoints under DIR (campaign cells
//                     resume after a kill; DIR must exist)
//   --json OUT        write the matrix report JSON to OUT
//   --smoke           tiny grid + budget for CI smoke runs
//
// Observability:
//   --trace-out OUT   collect scoped spans, write Chrome trace-event JSON
//                     (load in Perfetto / chrome://tracing)
//   --metrics-out OUT write the obs metrics snapshot; its "metrics"
//                     section is byte-identical across --jobs values
//
// Exit status: 0 = sweep complete; 2 = usage/runtime error;
// 3 = interrupted by SIGINT/SIGTERM (finished cells kept their
// checkpoints — re-run with the same --checkpoint DIR to continue).
#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/matrix.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace eqc;

namespace {

constexpr int kExitInterrupted = 3;

std::atomic<bool> g_stop{false};

void install_stop_handlers() {
  struct sigaction sa {};
  sa.sa_handler = [](int) { g_stop.store(true); };
  sa.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

std::vector<int> split_csv_ints(const std::string& s) {
  std::vector<int> out;
  for (const auto& part : split_csv(s)) out.push_back(std::atoi(part.c_str()));
  return out;
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: eqc_matrix [--gadgets LIST] [--codes LIST] [--ks LIST]\n"
      "       [--noises LIST] [--mc P] [--fault-k K] [--budget B]\n"
      "       [--shrink] [--jobs N] [--seed S] [--checkpoint DIR]\n"
      "       [--json OUT] [--trace-out OUT] [--metrics-out OUT] [--smoke]\n");
  std::exit(2);
}

struct Options {
  analysis::MatrixConfig cfg;
  std::string json_out;
  std::string trace_out;
  std::string metrics_out;
  bool smoke = false;
};

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
    if (arg == "--gadgets")
      opt.cfg.gadgets = split_csv(next("--gadgets"));
    else if (arg == "--codes")
      opt.cfg.codes = split_csv(next("--codes"));
    else if (arg == "--ks")
      opt.cfg.ks = split_csv_ints(next("--ks"));
    else if (arg == "--noises")
      opt.cfg.noises = split_csv(next("--noises"));
    else if (arg == "--mc") {
      opt.cfg.mode = analysis::MatrixMode::MonteCarlo;
      opt.cfg.mc_p = std::atof(next("--mc"));
    } else if (arg == "--fault-k")
      opt.cfg.fault_k = std::strtoull(next("--fault-k"), nullptr, 10);
    else if (arg == "--budget") {
      const std::uint64_t b = std::strtoull(next("--budget"), nullptr, 10);
      opt.cfg.budget = b;
      opt.cfg.mc_trials = b;
    } else if (arg == "--shrink")
      opt.cfg.shrink = true;
    else if (arg == "--jobs") {
      const auto jobs = parallel::parse_jobs(next("--jobs"));
      if (!jobs) {
        std::fprintf(stderr,
                     "eqc_matrix: error: --jobs must be an integer in "
                     "[0, %u]\n",
                     parallel::kMaxJobs);
        std::exit(2);
      }
      opt.cfg.jobs = *jobs;
    } else if (arg == "--seed")
      opt.cfg.seed = std::strtoull(next("--seed"), nullptr, 10);
    else if (arg == "--checkpoint")
      opt.cfg.checkpoint_prefix = std::string(next("--checkpoint")) + "/";
    else if (arg == "--json")
      opt.json_out = next("--json");
    else if (arg == "--trace-out")
      opt.trace_out = next("--trace-out");
    else if (arg == "--metrics-out")
      opt.metrics_out = next("--metrics-out");
    else if (arg == "--smoke")
      opt.smoke = true;
    else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      usage();
    }
  }
  if (opt.smoke) {
    // A grid small enough for CI yet covering both codes and a non-paper
    // noise model, in campaign mode and under --mc alike.
    opt.cfg.gadgets = {"ngate"};
    opt.cfg.codes = {"steane", "rm15"};
    opt.cfg.ks = {1};
    opt.cfg.noises = {"paper", "biased-z"};
    opt.cfg.budget = 50;
    opt.cfg.mc_trials = 50;
  }
  return opt;
}

int run(const Options& opt) {
  analysis::MatrixConfig cfg = opt.cfg;
  cfg.stop = &g_stop;
  cfg.on_progress = [](const analysis::MatrixProgress& p) {
    if (!p.current_cell.empty())
      std::printf("[%zu/%zu] %s...\n", p.cells_done + 1, p.total_cells,
                  p.current_cell.c_str());
    std::fflush(stdout);
  };

  const std::size_t total =
      cfg.gadgets.size() * cfg.codes.size() * cfg.ks.size() * cfg.noises.size();
  std::printf("eqc_matrix: %zu cells (%s mode, budget %llu/cell, %u jobs)\n",
              total,
              cfg.mode == analysis::MatrixMode::Campaign ? "campaign" : "mc",
              static_cast<unsigned long long>(
                  cfg.mode == analysis::MatrixMode::Campaign ? cfg.budget
                                                             : cfg.mc_trials),
              cfg.jobs);

  const auto report = analysis::run_matrix(cfg);

  std::printf("\n%-36s %10s %9s %22s %14s\n", "cell", "trials", "failures",
              "rate [wilson 95%]", "p*");
  for (const auto& cell : report.cells) {
    const double rate =
        cell.trials == 0 ? 0.0
                         : static_cast<double>(cell.failures) /
                               static_cast<double>(cell.trials);
    std::printf("%-36s %10llu %9llu  %.4f [%.4f, %.4f]",
                cell.name().c_str(),
                static_cast<unsigned long long>(cell.trials),
                static_cast<unsigned long long>(cell.failures), rate,
                cell.interval.low, cell.interval.high);
    if (report.mode == analysis::MatrixMode::Campaign)
      std::printf("      %.3e", cell.pseudo_threshold);
    if (!cell.complete) std::printf("  (incomplete)");
    std::printf("\n");
  }

  if (!opt.json_out.empty()) {
    std::ofstream out(opt.json_out, std::ios::binary | std::ios::trunc);
    out << report.to_json();
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", opt.json_out.c_str());
      return 2;
    }
    std::printf("report written to %s\n", opt.json_out.c_str());
  }

  if (!report.complete) {
    if (g_stop.load()) {
      std::printf("interrupted: finished cells checkpointed — re-run to "
                  "continue\n");
      return kExitInterrupted;
    }
    return 2;
  }
  return 0;
}

// Writes --trace-out / --metrics-out even on an interrupted or failed
// sweep: a partial trace is exactly what a stall diagnosis needs.
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
  const Options opt = parse(argc, argv);
  install_stop_handlers();
  if (!opt.trace_out.empty()) obs::install_trace_sink();
  if (!opt.metrics_out.empty()) obs::enable_timing(true);
  try {
    return write_obs_outputs(opt, run(opt));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "eqc_matrix: error: %s\n", e.what());
    write_obs_outputs(opt, 2);
    return 2;
  }
}
