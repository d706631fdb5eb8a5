// Cross-backend differential fuzzing driver.
//
// Each trial derives its own RNG stream from (seed, trial index) via
// common/rng's counter-split scheme — the same parallelism discipline as
// the campaign engine and the Monte-Carlo driver — generates a unitary and
// a measured circuit, and runs every oracle applicable to the configured
// gate set.  Trials run on common/parallel's index-ordered sweep and the
// merged report is a pure function of the configuration: BYTE-IDENTICAL
// for any --jobs value (when no time budget cuts the run short).
//
// A failing (circuit, oracle, seed) triple is shrunk to a 1-minimal op
// sequence and packaged as a FailureArtifact: a replayable JSON document
// plus a generated GoogleTest regression snippet.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "common/json.h"
#include "testing/circuit_gen.h"
#include "testing/oracles.h"

namespace eqc::testing {

struct FuzzConfig {
  GateSet gate_set = GateSet::Clifford;
  std::size_t qubits = 5;
  std::size_t depth = 40;
  std::uint64_t seed = 1;
  std::uint64_t trials = 200;
  /// Worker threads (0 = one per hardware thread).  Never changes the
  /// report, only the wall clock.
  unsigned jobs = 1;
  /// Wall-clock cap in seconds; 0 = none.  Checked between trials, so a
  /// time-boxed run may complete fewer trials — the only mode in which the
  /// report is not reproducible byte-for-byte across machines.
  double time_budget_sec = 0.0;
  /// Probability of a measurement / |0>-reprep slot in the measured circuit.
  double measure_prob = 0.15;
  double prep_prob = 0.05;
  double tol = 1e-7;
  /// Deliberate tableau defect (harness self-test).
  PlantedBug bug = PlantedBug::None;
  /// Delta-debug failing circuits to 1-minimal before reporting.
  bool shrink = true;
  /// Cap on reported failures (applied deterministically after the merge).
  std::size_t max_failures = 25;
  /// Cooperative cancellation, polled at trial granularity.  An
  /// interrupted run flushes a final checkpoint (when checkpointing) and
  /// returns a report with `interrupted` set; resuming later reaches the
  /// same final report as an uninterrupted run.
  const std::atomic<bool>* stop = nullptr;
  /// Periodic JSON checkpoint of the merged trial prefix; empty disables.
  std::string checkpoint_path;
  /// Trials between checkpoint writes and on_progress calls (never changes
  /// the report).
  std::uint64_t checkpoint_every = 64;
  /// Load `checkpoint_path` (when it exists) and continue from it.  The
  /// checkpoint's fingerprint must match this configuration.
  bool resume = false;
  /// When resuming and the checkpoint is damaged (CheckpointCorrupt),
  /// quarantine it and start fresh instead of throwing.
  bool fresh_on_corrupt = false;
  /// Stop after this many trials this run (0 = all) — bounds a session and
  /// lets tests simulate a mid-campaign kill.
  std::uint64_t max_trials_this_run = 0;
  /// Invoked every `checkpoint_every` merged trials and at the end of the
  /// run with (trials merged, failures kept).
  std::function<void(std::uint64_t, std::size_t)> on_progress;
};

/// One replayable counterexample.
struct FailureArtifact {
  std::string oracle;
  std::string gate_set;
  std::uint64_t trial = 0;
  std::uint64_t oracle_seed = 0;
  double tol = 1e-7;
  std::string bug = "none";
  std::string detail;            ///< oracle failure message (post-shrink)
  std::size_t original_ops = 0;  ///< op count before shrinking
  circuit::Circuit circuit;      ///< shrunk failing circuit

  FailureArtifact() : circuit(1) {}

  json::Value to_json_value() const;
  static FailureArtifact from_json(const json::Value& v);
  /// A paste-ready GoogleTest regression test reproducing the failure.
  std::string regression_snippet() const;
};

/// Re-runs the artifact's oracle on its circuit; true iff it still fails.
bool replay_failure(const FailureArtifact& artifact);

struct FuzzReport {
  FuzzConfig config;
  std::uint64_t trials_run = 0;
  /// True when the time budget cut trials; byte-identity across --jobs is
  /// only guaranteed when false.
  bool time_limited = false;
  /// True when a cooperative stop or `max_trials_this_run` ended the run
  /// before the trial budget; the written checkpoint makes it resumable.
  bool interrupted = false;
  std::uint64_t oracle_runs = 0;  ///< total oracle evaluations
  std::vector<FailureArtifact> failures;  ///< ordered by (trial, oracle)

  /// Canonical JSON: configuration echo + failures, no timing or host
  /// information (the byte-identity surface for the --jobs gate).
  json::Value to_json_value() const;
  std::string to_json() const { return to_json_value().dump(); }
};

/// Oracle names run for a gate set, split by circuit flavor.
std::vector<std::string> unitary_oracles(GateSet gs);
std::vector<std::string> measured_oracles(GateSet gs);

/// Runs the fuzz campaign described by `cfg`.
FuzzReport run_fuzz(const FuzzConfig& cfg);

}  // namespace eqc::testing
