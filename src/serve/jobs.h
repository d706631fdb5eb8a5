// Job specifications and the job runner for eqc_serve.
//
// A job is one of the library's three long-running analyses — a fault
// campaign, a Monte-Carlo failure-rate run, or a differential fuzz run —
// described by a small JSON document (the same parameters the CLI tools
// accept).  The runner executes a job with a per-job worker budget, a
// cooperative stop token and a per-job checkpoint file, and writes the
// final report ATOMICALLY only when the job completes.  Because every
// engine is deterministic and resumable, a job killed at any point and
// re-run from its checkpoint produces a final report BYTE-IDENTICAL to an
// uninterrupted run.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/experiments.h"
#include "analysis/matrix.h"
#include "common/json.h"
#include "common/stats.h"
#include "testing/circuit_gen.h"
#include "testing/oracles.h"

namespace eqc::serve {

enum class JobType { Campaign, MonteCarlo, Fuzz, Matrix };

const char* to_string(JobType type);

/// Campaign-job parameters beyond the gadget (mirrors eqc_faultscan's
/// campaign options).
struct CampaignParams {
  bool chaos = false;         ///< chaos mode instead of k-fault counting
  std::size_t k = 2;          ///< fault-set size (k-fault mode)
  std::uint64_t budget = 4000;///< sets tested (k-fault) / trials (chaos)
  double chaos_p = 0.0;       ///< chaos error probability (spec noise axis)
  bool shrink = true;
  bool tripwire = false;      ///< codespace tripwire during replay
};

/// Monte-Carlo-job parameters (the spec's noise axis at probability `p`,
/// run as 64-lane frame batches).  A legacy "engine" member in a spec is
/// ignored: old specs and journals still parse.
struct McParams {
  double p = 1e-3;
  std::uint64_t trials = 1000;
  std::uint64_t block = 256;  ///< trials between checkpoints (cadence only)
};

/// Fuzz-job parameters (mirrors eqc_fuzz's options).
struct FuzzParams {
  testing::GateSet gate_set = testing::GateSet::Clifford;
  std::size_t qubits = 5;
  std::size_t depth = 40;
  std::uint64_t trials = 200;
  double measure_prob = 0.15;
  double tol = 1e-7;
  bool shrink = true;
  testing::PlantedBug bug = testing::PlantedBug::None;
};

/// Scenario-matrix-job parameters (mirrors eqc_matrix's options).  The
/// gadget x (code, k, noise) grid sweeps through the campaign or MC engine
/// per cell; the per-job checkpoint path becomes the per-cell prefix.
struct MatrixParams {
  bool mc = false;  ///< MC trials per cell instead of k-fault counting
  std::vector<std::string> gadgets = {"ngate", "recovery"};
  std::vector<std::string> codes = {"steane", "rm15"};
  std::vector<int> ks = {1, 2};
  std::vector<std::string> noises = {"paper", "correlated"};
  std::size_t fault_k = 2;      ///< campaign fault-set size per cell
  std::uint64_t budget = 2000;  ///< fault sets tested per cell
  bool shrink = false;
  double p = 1e-3;              ///< MC physical error rate
  std::uint64_t trials = 2000;  ///< MC trials per cell
};

struct JobSpec {
  JobType type = JobType::MonteCarlo;
  /// Gadget under test (campaign and MC jobs; ignored by fuzz and matrix
  /// jobs — the matrix grid names its gadgets/scenarios per cell).
  analysis::GadgetSpec gadget;
  /// Per-job worker budget handed to the engine (0 = hardware threads).
  unsigned jobs = 1;
  std::uint64_t seed = 1;
  std::uint64_t checkpoint_every = 64;
  CampaignParams campaign;
  McParams mc;
  FuzzParams fuzz;
  MatrixParams matrix;

  /// Canonical JSON (insertion-ordered, deterministic) — journaled on
  /// submit and used as the Monte-Carlo checkpoint fingerprint.
  json::Value to_json_value() const;
  /// Parses a spec; throws ContractViolation on an unknown type/gadget and
  /// json::JsonError on malformed members.
  static JobSpec from_json(const json::Value& v);
};

/// Progress snapshot: a uniform (items_done / total / counter) view across
/// all three job types.  For MC jobs `counter` is the real FailureCounter;
/// campaign jobs map (sets_tested, malignant) and fuzz jobs (trials
/// merged, failures kept) onto it so one status schema serves everything.
struct JobProgress {
  std::uint64_t items_done = 0;
  std::uint64_t total_items = 0;
  FailureCounter counter;
};

struct JobPaths {
  std::string checkpoint;  ///< per-job checkpoint file
  std::string report;      ///< final report, written atomically on completion
};

struct JobOutcome {
  /// True when the job ran to completion and the report file was written;
  /// false when the stop token ended it early (checkpoint flushed).
  bool complete = false;
};

/// Runs (or resumes) one job.  Resumes from `paths.checkpoint` when it
/// exists; a damaged checkpoint is quarantined and the job restarts fresh
/// (determinism makes that safe).  Throws on misconfiguration.
JobOutcome run_job(const JobSpec& spec, const JobPaths& paths,
                   const std::atomic<bool>* stop,
                   const std::function<void(const JobProgress&)>& on_progress);

}  // namespace eqc::serve
