// Fault-injection campaign engine: the library's one fault-counting
// engine.
//
// Mechanizes the paper's "count the potential places for two errors"
// methodology over the fault universe of fault_enum.h, from single faults
// to fault sets of any size k, with the robustness machinery long scans
// need:
//
//  * k-FAULT CAMPAIGNS — exhaustive or budgeted sampling over fault sets
//    of size k >= 1 (k = 1 is the single-fault certification of claim
//    (ii), k = 2 the pair count of claim (iii) with its p^2 coefficient
//    and pseudo-threshold), plus a CHAOS mode that samples whole fault
//    configurations from a noise::NoiseModel instead of uniformly from the
//    k-subset universe.
//
//  * DETERMINISTIC PARALLEL SWEEP — the item stream (combination ranks or
//    chaos trial indices) runs on parallel::sweep: workers claim positions
//    from one cursor and verdicts fold in stream order.  Per-item RNG
//    streams are counter-split off the campaign seed (not off a per-worker
//    stream), so every item's verdict is a pure function of its position
//    and the report is BIT-IDENTICAL for any --jobs value.
//
//  * CHECKPOINT / RESUME — each flush appends the folded prefix's next
//    stream position, its counters and the malignant sets folded since the
//    previous flush to a progress log; a killed campaign replays it,
//    resumes without recounting, and reaches the same final report.
//
//  * COUNTEREXAMPLE SHRINKING — each malignant fault set is delta-debugged
//    to a 1-minimal still-failing subset before it is reported, so reports
//    name the actual failure mechanism, and every reported set can be
//    replayed exactly through run_with_faults from the report JSON.
//
//  * CODESPACE TRIPWIRE — an optional mid-circuit probe checks that the
//    data block is still a codeword (between recovery rounds, or at every
//    site where the fault-free run holds it in the codespace) while a
//    malignant set is replayed, and attributes the FIRST violation to a
//    fault-site ordinal.  codespace_tripwire() builds it from a gadget.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/fault_enum.h"
#include "codes/css_code.h"
#include "common/json.h"
#include "common/stats.h"
#include "noise/model.h"

namespace eqc::analysis {

struct BuiltGadget;  // analysis/experiments.h

enum class CampaignMode {
  KFault,  ///< uniform counting over size-k fault sets (exhaustive/budgeted)
  Chaos,   ///< fault sets sampled from a NoiseModel, one trial per item
};

/// Mid-circuit codespace probe.  After fault injection at each site in
/// `probe_after`, the replay checks that `block` is still a codeword of
/// `code`; the first site where it is not trips the wire and records that
/// site's ordinal.  Probing reads the state only (a tableau stabilizer
/// check), so it never perturbs the run.
struct TripwireOptions {
  /// The code whose stabilizers the block must satisfy; null = no tripwire.
  const codes::CssCode* code = nullptr;
  codes::CodeBlock block;
  /// Sorted site ordinals after which to probe (no other site is probed).
  std::vector<std::size_t> probe_after;

  bool enabled() const { return code != nullptr; }
};

/// The codespace tripwire of a built gadget: its main block, probed where
/// one fault-free calibration run holds that block in the codespace.  Mid-
/// gadget a data block is legitimately entangled with ancillas (so the
/// check fails even without faults); calibrating restricts the probes to
/// sites where a violation implicates the injected faults.  A gadget with
/// round boundaries (recovery) is probed only at those among them; one
/// without (the N gate) at every calibrated site.
TripwireOptions codespace_tripwire(const BuiltGadget& built);

/// Progress snapshot handed to CampaignConfig::on_progress (and useful to
/// anything polling a checkpoint): the folded stream prefix [0,
/// items_done), the item-stream length, and the prefix's tested/malignant
/// counts.
struct CampaignProgress {
  std::uint64_t items_done = 0;
  std::uint64_t total_items = 0;
  std::uint64_t sets_tested = 0;
  std::uint64_t malignant = 0;
};

/// CampaignReport::engine of the default "frames" engine: planted Pauli
/// frames, replayed per trial where the frame model cannot absorb a set.
inline constexpr char kPlantedFramesEngine[] = "planted_frames_trials_fallback";

struct CampaignConfig {
  CampaignMode mode = CampaignMode::KFault;
  /// Fault-set size for KFault campaigns (>= 1).
  std::size_t k = 2;
  /// KFault: max fault sets to test; 0 = fully exhaustive.  When the
  /// k-subset universe exceeds the budget, `budget` DISTINCT valid sets
  /// are pre-sampled (deduplicated, no same-site collisions).
  /// Chaos: number of trials (required > 0).
  std::uint64_t budget = 0;
  /// Worker threads (0 = one per hardware thread).  Never changes the
  /// report — only the wall clock.
  unsigned jobs = 1;
  /// Seed for sampling (subset pre-sampling, chaos per-item streams).
  std::uint64_t sample_seed = 99;
  /// Noise model driving Chaos mode (each site fires independently).
  noise::NoiseModel chaos_model{};
  /// Delta-debug malignant sets to 1-minimal before reporting.
  bool shrink = true;
  /// Checkpoint file, an append-only progress log (common/checkpoint.h)
  /// that stores each malignant set once; empty disables checkpointing.
  std::string checkpoint_path;
  /// Items between periodic checkpoint writes (a final write always
  /// happens when the run stops, so a clean stop never loses progress).
  std::uint64_t checkpoint_every = 256;
  /// Load `checkpoint_path` (when it exists) and continue from it.  The
  /// checkpoint's fingerprint must match this campaign's configuration.
  bool resume = false;
  /// Wall-clock leg of the checkpoint cadence: when > 0, a checkpoint is
  /// flushed at least every this many seconds even if fewer than
  /// `checkpoint_every` items folded — a crash never loses more than this
  /// window of work under slow items.
  double checkpoint_min_interval_sec = 0.0;
  /// Cooperative cancellation: polled at item granularity by every worker.
  /// When it becomes true the sweep stops claiming and folding items,
  /// flushes a final checkpoint and returns a report with complete = false
  /// — resuming from the checkpoint later reaches the same final report as
  /// an uninterrupted run.
  const std::atomic<bool>* stop = nullptr;
  /// Invoked (serialized, under the engine's internal lock — keep it
  /// cheap) at checkpoint cadence and once at the end of the run.
  std::function<void(const CampaignProgress&)> on_progress;
  /// When resuming and the checkpoint file is damaged (CheckpointCorrupt),
  /// quarantine it to "<path>.corrupt" and start fresh instead of
  /// throwing.  Determinism makes the fallback safe: a fresh start reaches
  /// the same final report.
  bool fresh_on_corrupt = false;
  /// Optional codespace tripwire, probed while malignant sets are
  /// replayed for attribution.
  TripwireOptions tripwire;
  /// Verdict engine.  "frames" (the default) evaluates each fault set as a
  /// planted Pauli frame against the precompiled reference pass, falling
  /// back to the per-trial replay (run_with_faults) item by item when a set
  /// exercises a deviation the frame model cannot absorb, and for the whole
  /// run when the gadget does not compile to a frame program.  "trials"
  /// replays every set through the per-trial executor; only the
  /// equivalence tests select it.  Verdicts and checkpoints are identical
  /// either way; reports differ only in the engine their `estimator`
  /// names.  Shrink and tripwire replay always use the
  /// per-trial executor.  The field stays only because perfbench assigns
  /// it, and goes together with that assignment.
  std::string engine = "frames";
};

/// One confirmed counterexample.
struct MalignantSet {
  /// Position in the deterministic campaign item stream.
  std::uint64_t index = 0;
  /// The failing faults (1-minimal when the campaign shrinks).
  std::vector<Fault> faults;
  /// True when `faults` passed the shrinker (removing any one fault no
  /// longer fails the oracle).
  bool minimal = false;
  bool tripped = false;            ///< tripwire fired during replay
  std::size_t trip_ordinal = 0;    ///< first tripping site (when tripped)
};

struct CampaignReport {
  CampaignMode mode = CampaignMode::KFault;
  std::size_t k = 0;
  std::size_t num_qubits = 0;
  std::size_t num_sites = 0;
  std::size_t single_faults = 0;   ///< size of the single-fault universe
  std::uint64_t total_items = 0;   ///< length of the campaign item stream
  std::uint64_t sets_tested = 0;
  std::uint64_t malignant = 0;
  bool exhaustive = false;  ///< every valid k-subset of the universe tested
  bool complete = false;    ///< the item stream was drained
  /// The verdict engine, as the report's `estimator` names it:
  /// kPlantedFramesEngine, or "trials" when CampaignConfig::engine is.
  std::string engine = kPlantedFramesEngine;
  std::uint64_t experiment_seed = 0;
  std::uint64_t sample_seed = 0;
  double chaos_p = 0.0;            ///< chaos_model.p (Chaos mode)
  std::vector<MalignantSet> malignant_sets;

  double malignant_fraction() const {
    return sets_tested == 0 ? 0.0
                            : static_cast<double>(malignant) /
                                  static_cast<double>(sets_tested);
  }
  /// Wilson 95% interval on the malignant fraction (the budgeted
  /// estimator is never quoted without an error bar).
  BinomialInterval malignant_interval() const {
    return wilson_interval(malignant, sets_tested);
  }
  /// Leading coefficient A of P_fail ~ A p^k under the independent model
  /// (KFault mode; 0.0 in Chaos mode, where malignant_fraction() is
  /// already the failure-rate estimate at chaos_p).
  double p_k_coefficient() const;
  /// p* solving A p^k = p, i.e. A^(-1/(k-1)); 1.0 when undefined (k < 2
  /// or A <= 0).
  double pseudo_threshold() const;

  /// Canonical JSON (report + replay artifact in one document).  Contains
  /// no timing, thread or host information: two campaigns over the same
  /// configuration serialize BYTE-IDENTICALLY regardless of `jobs` or of
  /// how many kill/resume cycles produced them.
  json::Value to_json_value() const;
  std::string to_json() const { return to_json_value().dump(); }
};

/// Runs (or resumes) a fault campaign.  Throws ContractViolation on a
/// misconfiguration or a checkpoint fingerprint mismatch.
CampaignReport run_campaign(const FaultExperiment& ex,
                            const CampaignConfig& cfg);

/// Delta-debugs `faults` to a 1-minimal subset that still fails the
/// oracle.  Precondition: the full set fails.
std::vector<Fault> shrink_fault_set(const FaultExperiment& ex,
                                    std::vector<Fault> faults);

struct ProbeResult {
  bool failed = false;
  bool tripped = false;
  std::size_t trip_ordinal = 0;
};

/// Executes the experiment with `faults` planted while probing the
/// tripwire; returns the oracle verdict plus the first tripping site
/// ordinal.
ProbeResult run_with_faults_probed(const FaultExperiment& ex,
                                   const std::vector<Fault>& faults,
                                   const TripwireOptions& tripwire);

/// Maps op-count boundaries (e.g. BuiltGadget::round_boundaries) to the
/// fault-site ordinals of the last op before each boundary, sorted and
/// deduplicated.  A boundary of 0 is skipped; one past the gadget's op
/// count throws ContractViolation.
std::vector<std::size_t> probe_ordinals_for_op_boundaries(
    const circuit::Circuit& gadget,
    const std::vector<std::size_t>& op_boundaries);

/// Extracts the malignant fault sets of a serialized CampaignReport (or a
/// campaign checkpoint) for exact replay through run_with_faults.
std::vector<std::vector<Fault>> parse_fault_sets(const std::string& json_text,
                                                 std::size_t num_qubits);

// --- combinatorics (exposed for tests) -------------------------------------

/// C(n, k), saturating at UINT64_MAX on overflow.
std::uint64_t binomial_or_max(std::uint64_t n, std::uint64_t k);

/// The `rank`-th k-subset of {0..n-1} in colexicographic order, ascending.
/// Inverse of colex ranking; rank must be < C(n, k).
std::vector<std::uint32_t> combination_unrank(std::uint64_t rank,
                                              std::uint64_t n, std::size_t k);

}  // namespace eqc::analysis
