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
//  * CHECKPOINT / RESUME — the folded prefix (next stream position,
//    counters, malignant sets) is periodically serialized to a JSON
//    checkpoint; a killed campaign resumes without recounting, and reaches
//    the same final report.
//
//  * COUNTEREXAMPLE SHRINKING — each malignant fault set is delta-debugged
//    to a 1-minimal still-failing subset before it is reported, so reports
//    name the actual failure mechanism, and every reported set can be
//    replayed exactly through run_with_faults from the report JSON.
//
//  * INVARIANT TRIPWIRES — an optional mid-circuit probe checks an
//    invariant (e.g. data-block codespace membership between recovery
//    rounds) while a malignant set is replayed, and attributes the FIRST
//    violation to a fault-site ordinal.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analysis/fault_enum.h"
#include "common/json.h"
#include "common/stats.h"
#include "noise/model.h"

namespace eqc::analysis {

enum class CampaignMode {
  KFault,  ///< uniform counting over size-k fault sets (exhaustive/budgeted)
  Chaos,   ///< fault sets sampled from a NoiseModel, one trial per item
};

/// Mid-circuit invariant probe.  `violated` is evaluated on the backend
/// after fault injection at each probed site; the first true return trips
/// the wire and records that site's ordinal.  Probing reads the state only
/// (a tableau stabilizer check), so it never perturbs the run.
struct TripwireOptions {
  std::function<bool(circuit::TabBackend&)> violated;
  /// Sorted site ordinals after which to probe; empty = every site.
  std::vector<std::size_t> probe_after;

  bool enabled() const { return static_cast<bool>(violated); }
};

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
  /// Checkpoint file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Items between periodic checkpoint writes (a final write always
  /// happens when the run stops, so a clean stop never loses progress).
  std::uint64_t checkpoint_every = 256;
  /// Load `checkpoint_path` (when it exists) and continue from it.  The
  /// checkpoint's fingerprint must match this campaign's configuration.
  bool resume = false;
  /// Stop after this many items this run (0 = run to completion).  Used
  /// to bound a session and by tests to simulate a mid-campaign kill.
  std::uint64_t max_items_this_run = 0;
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
  /// Optional invariant tripwire, evaluated while malignant sets are
  /// replayed for attribution.
  TripwireOptions tripwire;
  /// Verdict engine: "trials" replays each fault set through the per-trial
  /// executor; "frames" evaluates it as a planted Pauli frame against the
  /// precompiled reference pass (same verdicts — the engine falls back to
  /// the per-trial replay item-by-item when a set exercises a deviation
  /// the frame model cannot absorb).  Shrink and tripwire replay always
  /// use the per-trial executor, and the checkpoint fingerprint is
  /// engine-independent: checkpoints are interchangeable between engines.
  std::string engine = "trials";
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
  /// A failure-budget stopping rule terminated counting (see
  /// FailureCounter::stopped_early); always false for the campaign modes
  /// shipped today, carried so report JSON states the estimator's validity.
  bool stopped_early = false;
  std::uint64_t experiment_seed = 0;
  std::uint64_t sample_seed = 0;
  double chaos_p = 0.0;            ///< chaos_model.p (Chaos mode)
  std::vector<MalignantSet> malignant_sets;

  double malignant_fraction() const {
    return sets_tested == 0 ? 0.0
                            : static_cast<double>(malignant) /
                                  static_cast<double>(sets_tested);
  }
  /// Wilson 95% interval on the malignant fraction (the early-stopped /
  /// budgeted estimator is never quoted without an error bar).
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
/// tripwire invariant; returns the oracle verdict plus the first tripping
/// site ordinal.
ProbeResult run_with_faults_probed(const FaultExperiment& ex,
                                   const std::vector<Fault>& faults,
                                   const TripwireOptions& tripwire);

/// FaultInjector decorator: forwards every visit to `inner` (may be null),
/// then evaluates `violated` after the sites in `probe_after` (empty =
/// every site) until the first trip.
class ProbeInjector final : public circuit::FaultInjector {
 public:
  ProbeInjector(circuit::FaultInjector* inner,
                std::function<bool(circuit::Backend&)> violated,
                std::vector<std::size_t> probe_after);
  void visit(const circuit::FaultSite& site,
             circuit::Backend& backend) override;

  bool tripped() const { return tripped_; }
  std::size_t trip_ordinal() const { return trip_ordinal_; }

 private:
  circuit::FaultInjector* inner_;
  std::function<bool(circuit::Backend&)> violated_;
  std::vector<std::size_t> probe_after_;
  bool tripped_ = false;
  std::size_t trip_ordinal_ = 0;
};

/// Maps op-count boundaries (e.g. ftqc::RecoveryRoundMarks::op_boundaries)
/// to the fault-site ordinals of the last op before each boundary, sorted —
/// ready for TripwireOptions::probe_after.  A boundary of 0 is skipped; one
/// past the gadget's op count throws ContractViolation.
std::vector<std::size_t> probe_ordinals_for_op_boundaries(
    const circuit::Circuit& gadget,
    const std::vector<std::size_t>& op_boundaries);

/// Runs the experiment FAULT-FREE, probing the invariant after every site,
/// and returns the sorted ordinals at which it held.  Mid-circuit a data
/// block is legitimately entangled with ancillas (so a codespace check
/// fails even without faults); calibrating restricts the tripwire to the
/// sites where a violation genuinely implicates the injected faults.
std::vector<std::size_t> calibrate_probe_sites(
    const FaultExperiment& ex,
    const std::function<bool(circuit::TabBackend&)>& violated);

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
