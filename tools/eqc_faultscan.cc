// eqc_faultscan — command-line fault-tolerance analysis of the library's
// gadgets, without writing any C++.
//
// Usage:
//   eqc_faultscan <gadget> [options]
//
// Gadgets:
//   ngate      the Fig. 1 N gate (encoded |1>_L source)
//   recovery   the Sec. 5 measurement-free error recovery
//   recovery-measured   the measurement-based recovery baseline
//
// Scan options:
//   --code NAME       CSS code ("steane" | "rm15"; default steane)
//   --k K             repetition parameter k (gadgets use 2k+1 reps/rounds)
//   --reps N          legacy spelling: odd repetition count N = 2k+1
//   --noise NAME      noise axis ("paper" | "correlated" | "biased-z")
//   --no-syndrome     disable the N-gate parity check (ablation)
//   --mc P TRIALS     Monte-Carlo failure rate at error probability P
//   --engine NAME     engine behind every verdict (single-fault scan,
//                     campaigns, --mc): "trials" replays each run on the
//                     tableau, "frames" uses the Pauli-frame engine; the
//                     two give identical reports (default trials)
//   --seed S          RNG seed (default 1)
//
// Campaign options (the fault-injection campaign engine):
//   --campaign K      k-fault campaign over fault sets of size K (K = 2
//                     counts fault pairs: p^2 coefficient, pseudo-threshold)
//   --budget B        max fault sets tested (default 4000; 0 = exhaustive)
//   --chaos P TRIALS  chaos campaign: sample fault sets from the paper
//                     noise model at error probability P
//   --jobs N          worker threads (never changes the report)
//   --checkpoint FILE periodic JSON checkpoint (resume with --resume)
//   --resume          continue from --checkpoint FILE if it exists
//   --shrink / --no-shrink
//                     delta-debug malignant sets to 1-minimal (default on)
//   --tripwire        probe data-block codespace membership mid-circuit and
//                     attribute the first trip to a site ordinal
//   --json OUT        write the report (incl. replay artifact) to OUT
//   --replay FILE     re-execute every malignant set recorded in FILE and
//                     verify each still fails (exit 0 iff all replay)
//
// Observability:
//   --trace-out OUT   collect scoped spans, write Chrome trace-event JSON
//   --metrics-out OUT write the obs metrics snapshot; its "metrics"
//                     section is byte-identical across --jobs values
//
// Exit status: 0 = clean pass; 1 = the single-fault FT check fails (so
// campaigns can gate CI) or --replay finds a set that no longer fails;
// 2 = usage / runtime error; 3 = interrupted by SIGINT/SIGTERM with a
// final checkpoint flushed — re-run with --resume to continue.
//
// Examples:
//   eqc_faultscan ngate
//   eqc_faultscan ngate --campaign 2 --budget 4000 --jobs 4 --json out.json
//   eqc_faultscan recovery --campaign 2 --checkpoint ck.json --resume
//   eqc_faultscan ngate --chaos 1e-3 5000 --tripwire
//   eqc_faultscan ngate --replay out.json
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <iterator>
#include <optional>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/campaign.h"
#include "analysis/experiments.h"
#include "circuit/schedule.h"
#include "common/parallel.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"
#include "obs/metrics.h"
#include "obs/trace.h"

using namespace eqc;

namespace {

/// Exit code for a cooperative SIGINT/SIGTERM stop with resumable state.
constexpr int kExitInterrupted = 3;

std::atomic<bool> g_stop{false};

void install_stop_handlers() {
  // A second signal while draining kills the process the default way.
  struct sigaction sa {};
  sa.sa_handler = [](int) { g_stop.store(true); };
  sa.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
}

struct Options {
  std::string gadget;
  std::string code = "steane";
  int repetition_k = 1;
  std::string noise = "paper";
  bool syndrome = true;
  double mc_p = 0.0;
  std::uint64_t mc_trials = 0;
  std::string engine = "trials";  // every verdict: "trials" | "frames"
  std::uint64_t seed = 1;
  // campaign
  std::size_t campaign_k = 0;
  std::uint64_t budget = 4000;
  double chaos_p = 0.0;
  std::uint64_t chaos_trials = 0;
  unsigned jobs = 1;
  std::string checkpoint;
  bool resume = false;
  bool shrink = true;
  bool tripwire = false;
  std::string json_out;
  std::string replay;
  std::string trace_out;
  std::string metrics_out;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: eqc_faultscan <ngate|recovery|recovery-measured>\n"
      "       [--code steane|rm15] [--k K] [--reps N]\n"
      "       [--noise paper|correlated|biased-z]\n"
      "       [--no-syndrome]\n"
      "       [--mc P TRIALS] [--engine trials|frames]\n"
      "       [--seed S]\n"
      "       [--campaign K] [--budget B] [--chaos P TRIALS] [--jobs N]\n"
      "       [--checkpoint FILE] [--resume] [--shrink|--no-shrink]\n"
      "       [--tripwire] [--json OUT] [--replay FILE]\n"
      "       [--trace-out OUT] [--metrics-out OUT]\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  if (argc < 2) usage();
  Options opt;
  opt.gadget = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", what);
        usage();
      }
      return argv[++i];
    };
    if (arg == "--reps") {
      const int reps = std::atoi(next("--reps"));
      if (reps < 1 || reps % 2 == 0) {
        std::fprintf(stderr, "--reps must be odd and >= 1\n");
        usage();
      }
      opt.repetition_k = (reps - 1) / 2;
    } else if (arg == "--k")
      opt.repetition_k = std::atoi(next("--k"));
    else if (arg == "--code")
      opt.code = next("--code");
    else if (arg == "--noise")
      opt.noise = next("--noise");
    else if (arg == "--no-syndrome")
      opt.syndrome = false;
    else if (arg == "--mc") {
      opt.mc_p = std::atof(next("--mc"));
      opt.mc_trials = std::strtoull(next("--mc trials"), nullptr, 10);
    } else if (arg == "--engine") {
      opt.engine = next("--engine");
      if (opt.engine != "trials" && opt.engine != "frames") {
        std::fprintf(stderr, "--engine must be trials or frames\n");
        usage();
      }
    } else if (arg == "--seed")
      opt.seed = std::strtoull(next("--seed"), nullptr, 10);
    else if (arg == "--campaign")
      opt.campaign_k = std::strtoull(next("--campaign"), nullptr, 10);
    else if (arg == "--budget")
      opt.budget = std::strtoull(next("--budget"), nullptr, 10);
    else if (arg == "--chaos") {
      opt.chaos_p = std::atof(next("--chaos"));
      opt.chaos_trials = std::strtoull(next("--chaos trials"), nullptr, 10);
    } else if (arg == "--jobs") {
      const auto jobs = parallel::parse_jobs(next("--jobs"));
      if (!jobs) {
        std::fprintf(stderr,
                     "eqc_faultscan: error: --jobs must be an integer in "
                     "[0, %u]\n",
                     parallel::kMaxJobs);
        std::exit(2);
      }
      opt.jobs = *jobs;
    } else if (arg == "--checkpoint")
      opt.checkpoint = next("--checkpoint");
    else if (arg == "--resume")
      opt.resume = true;
    else if (arg == "--shrink")
      opt.shrink = true;
    else if (arg == "--no-shrink")
      opt.shrink = false;
    else if (arg == "--tripwire")
      opt.tripwire = true;
    else if (arg == "--json")
      opt.json_out = next("--json");
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

int run_replay(const analysis::BuiltGadget& built, const Options& opt) {
  std::ifstream in(opt.replay, std::ios::binary);
  if (!in.good()) {
    std::fprintf(stderr, "cannot read replay artifact: %s\n",
                 opt.replay.c_str());
    return 2;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const auto sets =
      analysis::parse_fault_sets(ss.str(), built.ex.num_qubits);
  std::printf("replaying %zu malignant fault set(s) from %s...\n",
              sets.size(), opt.replay.c_str());
  std::size_t still_failing = 0;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    const bool fails = analysis::run_with_faults(built.ex, sets[i]);
    if (fails) ++still_failing;
    std::printf("  set %zu (%zu fault%s): %s\n", i, sets[i].size(),
                sets[i].size() == 1 ? "" : "s",
                fails ? "fails (reproduced)" : "NO LONGER FAILS");
  }
  std::printf("replay: %zu/%zu reproduced\n", still_failing, sets.size());
  return still_failing == sets.size() ? 0 : 1;
}

void print_campaign_report(const analysis::CampaignReport& report) {
  const auto iv = report.malignant_interval();
  std::printf("  %llu sets tested (%s%s), %llu malignant (%.4f%%  "
              "[wilson 95%%: %.4f%%, %.4f%%])\n",
              static_cast<unsigned long long>(report.sets_tested),
              report.exhaustive ? "exhaustive" : "sampled",
              report.complete ? "" : ", INCOMPLETE",
              static_cast<unsigned long long>(report.malignant),
              100.0 * report.malignant_fraction(), 100.0 * iv.low,
              100.0 * iv.high);
  if (report.mode == analysis::CampaignMode::KFault && report.k >= 2) {
    std::printf("  P_fail ~ %.1f p^%zu, pseudo-threshold p* ~ %.3e\n",
                report.p_k_coefficient(), report.k,
                report.pseudo_threshold());
  }
  const std::size_t show = std::min<std::size_t>(report.malignant_sets.size(), 3);
  for (std::size_t i = 0; i < show; ++i) {
    const auto& m = report.malignant_sets[i];
    std::printf("  counterexample #%zu (item %llu%s): ordinals", i,
                static_cast<unsigned long long>(m.index),
                m.minimal ? ", minimal" : "");
    for (const auto& f : m.faults)
      std::printf(" %zu", f.ordinal);
    if (m.tripped)
      std::printf("  [tripwire: first codespace violation at ordinal %zu]",
                  m.trip_ordinal);
    std::printf("\n");
  }
  if (report.malignant_sets.size() > show)
    std::printf("  ... %zu more counterexample(s) in the JSON report\n",
                report.malignant_sets.size() - show);
}

int run(const Options& opt);

// Writes --trace-out / --metrics-out even on an interrupted or failed
// scan: a partial trace is exactly what a stall diagnosis needs.
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
    // Checkpoint fingerprint mismatches, malformed replay artifacts and
    // contract violations all land here: report and exit, don't abort.
    std::fprintf(stderr, "eqc_faultscan: error: %s\n", e.what());
    write_obs_outputs(opt, 2);
    return 2;
  }
}

namespace {

int run(const Options& opt) {
  if (!analysis::is_known_gadget(opt.gadget)) usage();
  if (!analysis::is_known_noise(opt.noise)) usage();
  analysis::GadgetSpec spec;
  spec.gadget = opt.gadget;
  spec.scenario.code = opt.code;
  spec.scenario.repetition_k = opt.repetition_k;
  spec.scenario.noise = opt.noise;
  spec.syndrome = opt.syndrome;
  spec.seed = opt.seed;
  const analysis::BuiltGadget built = analysis::build_gadget_experiment(spec);
  const analysis::FaultExperiment& ex = built.ex;

  if (!opt.replay.empty()) return run_replay(built, opt);

  const auto sched = circuit::schedule(ex.gadget);
  const auto sites = circuit::enumerate_fault_sites(ex.gadget);
  std::printf("gadget %s [%s, k=%d (%d reps), %s noise]: %zu qubits, %zu "
              "gates, depth %zu, %zu fault sites\n",
              opt.gadget.c_str(), spec.scenario.code.c_str(),
              spec.scenario.repetition_k, spec.scenario.reps(),
              spec.scenario.noise.c_str(), ex.num_qubits, ex.gadget.size(),
              sched.depth(), sites.size());

  // The --campaign / --chaos run, configured up front: its heading (and
  // tripwire line) prints after the single-fault verdict.
  std::optional<analysis::CampaignConfig> campaign_cfg;
  std::string campaign_heading;
  if (opt.campaign_k > 0 || opt.chaos_trials > 0) {
    analysis::CampaignConfig& cfg = campaign_cfg.emplace();
    char line[256];
    if (opt.chaos_trials > 0) {
      cfg.mode = analysis::CampaignMode::Chaos;
      cfg.budget = opt.chaos_trials;
      cfg.chaos_model =
          analysis::scenario_noise_model(spec.scenario, opt.chaos_p);
      std::snprintf(line, sizeof line,
                    "\nchaos campaign (%s noise, p = %g, %llu trials, "
                    "%u jobs)...\n",
                    spec.scenario.noise.c_str(), opt.chaos_p,
                    static_cast<unsigned long long>(opt.chaos_trials),
                    opt.jobs);
    } else {
      cfg.mode = analysis::CampaignMode::KFault;
      cfg.k = opt.campaign_k;
      cfg.budget = opt.budget;
      std::snprintf(line, sizeof line,
                    "\n%zu-fault campaign (budget %llu, %u jobs)...\n",
                    opt.campaign_k,
                    static_cast<unsigned long long>(opt.budget), opt.jobs);
    }
    campaign_heading = line;
    cfg.jobs = opt.jobs;
    cfg.engine = opt.engine;
    cfg.sample_seed = 99;
    cfg.shrink = opt.shrink;
    cfg.checkpoint_path = opt.checkpoint;
    cfg.resume = opt.resume;
    // SIGINT/SIGTERM request a cooperative stop: the engine flushes a
    // final checkpoint, and the wall-time cadence leg bounds the loss
    // window even when single items are slow.
    cfg.stop = &g_stop;
    cfg.checkpoint_min_interval_sec = 5.0;
    if (opt.tripwire) {
      const codes::CodeBlock block = built.main_block;
      const codes::CssCode* code = built.code;
      cfg.tripwire.violated = [block, code](circuit::TabBackend& b) {
        return !code->block_in_codespace(b.tableau(), block);
      };
      // Restrict probes to sites where the invariant holds fault-free (a
      // data block mid-gadget is legitimately entangled with ancillas);
      // within those, prefer the gadget's own round boundaries.
      const auto valid = analysis::calibrate_probe_sites(ex, cfg.tripwire.violated);
      if (built.probe_after.empty()) {
        cfg.tripwire.probe_after = valid;
      } else {
        std::set_intersection(built.probe_after.begin(),
                              built.probe_after.end(), valid.begin(),
                              valid.end(),
                              std::back_inserter(cfg.tripwire.probe_after));
      }
      std::snprintf(line, sizeof line,
                    "  tripwire armed at %zu of %zu fault sites\n",
                    cfg.tripwire.probe_after.size(), sites.size());
      campaign_heading += line;
    }
  }

  std::printf("\nsingle-fault scan...\n");
  // An exhaustive 1-fault campaign IS the single-fault scan: run it once
  // and take both verdicts from its report.
  const bool scan_is_campaign = campaign_cfg &&
                                campaign_cfg->mode ==
                                    analysis::CampaignMode::KFault &&
                                campaign_cfg->k == 1 &&
                                campaign_cfg->budget == 0;
  analysis::CampaignConfig single_cfg;
  single_cfg.k = 1;
  single_cfg.budget = 0;  // exhaustive
  single_cfg.jobs = opt.jobs;
  single_cfg.shrink = false;
  single_cfg.stop = &g_stop;
  single_cfg.engine = opt.engine;
  const auto single = analysis::run_campaign(
      ex, scan_is_campaign ? *campaign_cfg : single_cfg);
  std::optional<analysis::CampaignReport> report;
  if (scan_is_campaign) report = single;
  if (!single.complete) {
    std::printf("interrupted during the single-fault scan\n");
    if (scan_is_campaign && !opt.checkpoint.empty())
      std::printf("campaign checkpoint flushed to %s — resume with "
                  "--resume\n",
                  opt.checkpoint.c_str());
    return kExitInterrupted;
  }
  std::printf("  %llu faults tested, %llu failures -> %s\n",
              static_cast<unsigned long long>(single.sets_tested),
              static_cast<unsigned long long>(single.malignant),
              single.malignant == 0 ? "1-FAULT TOLERANT"
                                    : "NOT fault tolerant");
  if (!single.malignant_sets.empty()) {
    const auto& first = single.malignant_sets[0].faults[0];
    std::printf("  first failing fault: ordinal %zu, %s\n", first.ordinal,
                first.error.to_string().substr(0, 40).c_str());
  }

  if (campaign_cfg) {
    std::fputs(campaign_heading.c_str(), stdout);
    if (!report) report = analysis::run_campaign(ex, *campaign_cfg);
    print_campaign_report(*report);
    if (!opt.json_out.empty()) {
      std::ofstream out(opt.json_out, std::ios::binary | std::ios::trunc);
      out << report->to_json();
      std::printf("  report written to %s\n", opt.json_out.c_str());
    }
    if (!report->complete && g_stop.load()) {
      std::printf("interrupted: campaign checkpoint flushed%s%s — resume "
                  "with --resume\n",
                  opt.checkpoint.empty() ? "" : " to ",
                  opt.checkpoint.c_str());
      return kExitInterrupted;
    }
  }

  if (opt.mc_trials > 0) {
    std::printf("\nMonte-Carlo at p = %g (%llu trials, %u jobs, %s engine)"
                "...\n",
                opt.mc_p, static_cast<unsigned long long>(opt.mc_trials),
                opt.jobs, opt.engine.c_str());
    noise::McResumableOptions mc_opt;
    mc_opt.jobs = opt.jobs;
    mc_opt.stop = &g_stop;
    const noise::McRunResult mc = analysis::run_gadget_mc(
        spec.gadget, built,
        analysis::scenario_noise_model(spec.scenario, opt.mc_p),
        opt.mc_trials, opt.seed, opt.engine, mc_opt);
    const auto& counter = mc.counter;
    const auto iv = counter.interval();
    std::printf("  failure rate %.5f  [wilson 95%%: %.5f, %.5f]%s\n",
                counter.rate(), iv.low, iv.high,
                mc.complete ? "" : "  (interrupted, partial)");
    if (!mc.complete) return kExitInterrupted;
  }
  // Nonzero exit when the single-fault FT property fails: `eqc_faultscan
  // <gadget> && ...` gates CI on fault tolerance.
  return single.malignant == 0 ? 0 : 1;
}

}  // namespace
