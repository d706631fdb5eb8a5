#include "analysis/campaign.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "analysis/frame_oracle.h"
#include "circuit/tab_backend.h"
#include "frame/frames.h"
#include "common/assert.h"
#include "common/checkpoint.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eqc::analysis {

namespace {

using pauli::Pauli;
using pauli::PauliString;

const char* mode_name(CampaignMode mode) {
  return mode == CampaignMode::KFault ? "kfault" : "chaos";
}

// --- fault (de)serialization ------------------------------------------------

json::Value fault_to_json(const Fault& f) {
  json::Array err;
  for (const std::size_t q : f.error.support()) {
    json::Array entry;
    entry.emplace_back(q);
    entry.emplace_back(std::string(1, pauli::to_char(f.error.get(q))));
    err.emplace_back(std::move(entry));
  }
  json::Object obj;
  obj.emplace_back("ordinal", json::Value(f.ordinal));
  obj.emplace_back("error", json::Value(std::move(err)));
  return json::Value(std::move(obj));
}

Fault fault_from_json(const json::Value& v, std::size_t num_qubits) {
  Fault f;
  f.ordinal = static_cast<std::size_t>(v.at("ordinal").as_u64());
  f.error = PauliString(num_qubits);
  for (const auto& entry : v.at("error").as_array()) {
    const auto& pair = entry.as_array();
    EQC_EXPECTS(pair.size() == 2);
    const std::uint64_t q = pair[0].as_u64();
    EQC_EXPECTS(q < num_qubits);
    const std::string& label = pair[1].as_string();
    EQC_EXPECTS(label.size() == 1);
    switch (label[0]) {
      case 'X': f.error.set(q, Pauli::X); break;
      case 'Y': f.error.set(q, Pauli::Y); break;
      case 'Z': f.error.set(q, Pauli::Z); break;
      default: EQC_EXPECTS(false && "bad Pauli label in fault JSON");
    }
  }
  return f;
}

json::Value malignant_set_to_json(const MalignantSet& m) {
  json::Object obj;
  obj.emplace_back("index", json::Value(m.index));
  obj.emplace_back("minimal", json::Value(m.minimal));
  if (m.tripped) obj.emplace_back("trip_ordinal", json::Value(m.trip_ordinal));
  json::Array faults;
  for (const auto& f : m.faults) faults.push_back(fault_to_json(f));
  obj.emplace_back("faults", json::Value(std::move(faults)));
  return json::Value(std::move(obj));
}

MalignantSet malignant_set_from_json(const json::Value& v,
                                     std::size_t num_qubits) {
  MalignantSet m;
  m.index = v.at("index").as_u64();
  m.minimal = v.at("minimal").as_bool();
  if (const json::Value* trip = v.find("trip_ordinal")) {
    m.tripped = true;
    m.trip_ordinal = static_cast<std::size_t>(trip->as_u64());
  }
  for (const auto& f : v.at("faults").as_array())
    m.faults.push_back(fault_from_json(f, num_qubits));
  return m;
}

// --- campaign plumbing ------------------------------------------------------

/// The folded item-stream prefix: what a checkpoint stores.
struct CampaignState {
  std::uint64_t next_index = 0;  ///< items [0, next_index) are folded
  FailureCounter counter;  ///< trials = sets tested, failures = malignant
  std::vector<MalignantSet> sets;  ///< in stream order
};

/// Precompiled frame engine for verdicts (engine == "frames").
struct FramePlan {
  frame::FrameProgram prog;
  frame::BatchOracle oracle;
};

/// Everything immutable during the sweep.
struct CampaignPlan {
  const FaultExperiment* ex = nullptr;
  const CampaignConfig* cfg = nullptr;
  std::vector<Fault> faults;               ///< single-fault universe
  std::vector<circuit::FaultSite> sites;   ///< for chaos sampling
  std::optional<noise::GapSampler> chaos;  ///< Chaos mode only
  std::uint64_t total_items = 0;
  bool exhaustive = false;
  /// Pre-sampled combination ranks (budgeted KFault); empty otherwise.
  std::vector<std::uint64_t> sampled_ranks;
  /// Non-null when the frames engine is active.
  std::shared_ptr<const FramePlan> frames;
};

/// Frame-engine verdict for one fault set: a single planted lane through
/// the precompiled program, judged by the generic lane oracle.  Falls back
/// to the per-trial replay when the set drives a trial through a branch
/// deviation the frame model cannot absorb as a Pauli.
bool frame_verdict(const FramePlan& fp, const FaultExperiment& ex,
                   const std::vector<Fault>& faults) {
  try {
    std::vector<std::vector<frame::PlantedFault>> lanes(1);
    for (const auto& f : faults)
      lanes[0].push_back(frame::PlantedFault{f.ordinal, f.error});
    frame::FrameBatch batch(fp.prog);
    batch.run_planted(lanes);
    return (fp.oracle(batch) & 1) != 0;
  } catch (const frame::FrameUnsupported&) {
    return run_with_faults(ex, faults);
  }
}

bool distinct_ordinals(const std::vector<std::uint32_t>& combo,
                       const std::vector<Fault>& faults) {
  for (std::size_t a = 1; a < combo.size(); ++a)
    if (faults[combo[a]].ordinal == faults[combo[a - 1]].ordinal) return false;
  // Faults at one site are contiguous in enumeration order, so equal
  // ordinals in an ascending combination are always adjacent.
  return true;
}

/// Deterministically pre-samples `budget` distinct valid combination ranks
/// (pure function of the arguments; regenerated identically on resume).
std::vector<std::uint64_t> sample_distinct_ranks(
    std::uint64_t total_combos, std::uint64_t budget, std::uint64_t n,
    std::size_t k, std::uint64_t seed, const std::vector<Fault>& faults) {
  Rng rng(seed);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(budget));
  std::unordered_set<std::uint64_t> dedup;
  dedup.reserve(static_cast<std::size_t>(budget) * 2);
  const std::uint64_t max_attempts = 64 * budget + 1024;
  for (std::uint64_t attempt = 0;
       attempt < max_attempts && out.size() < budget; ++attempt) {
    const std::uint64_t r = rng.below(total_combos);
    if (!dedup.insert(r).second) continue;
    if (!distinct_ordinals(combination_unrank(r, n, k), faults)) continue;
    out.push_back(r);
  }
  return out;
}

/// Item verdict; `tested` is false for skipped stream positions (same-site
/// collisions in the exhaustive rank space).  `found` carries the
/// (shrunk, probed) counterexample of a malignant item.
struct ItemOutcome {
  bool tested = false;
  bool malignant = false;
  MalignantSet found;
};

ItemOutcome evaluate_item(const CampaignPlan& plan, std::uint64_t pos) {
  const FaultExperiment& ex = *plan.ex;
  const CampaignConfig& cfg = *plan.cfg;
  ItemOutcome out;
  // Local until the verdict, so a benign item's faults are freed by the
  // worker that built them, not by the fold.
  std::vector<Fault> faults;

  if (cfg.mode == CampaignMode::KFault) {
    const std::uint64_t rank =
        plan.sampled_ranks.empty() ? pos : plan.sampled_ranks[pos];
    const auto combo =
        combination_unrank(rank, plan.faults.size(), cfg.k);
    if (!distinct_ordinals(combo, plan.faults)) return out;  // skip
    for (const std::uint32_t idx : combo) faults.push_back(plan.faults[idx]);
  } else {
    // Chaos: every site fires independently under the noise model, from a
    // per-trial counter-split stream (common/rng.h).
    Rng item_rng(derive_stream_seed(cfg.sample_seed, pos));
    plan.chaos->for_each_fault(
        plan.sites, item_rng, [&](std::size_t i, noise::SiteError e) {
          const circuit::FaultSite& site = plan.sites[i];
          faults.push_back(Fault{
              site.ordinal, noise::to_pauli(e, site.qubits, ex.num_qubits)});
        });
  }

  out.tested = true;
  // An empty chaos configuration is a noiseless run: tested, never
  // malignant (skips the simulation).
  out.malignant =
      !faults.empty() &&
      (plan.frames != nullptr ? frame_verdict(*plan.frames, ex, faults)
                              : run_with_faults(ex, faults));
  if (!out.malignant) return out;
  MalignantSet& found = out.found;
  found.index = pos;
  found.faults = std::move(faults);
  if (cfg.shrink) {
    obs::Span shrink_span("campaign.shrink");
    shrink_span.arg("index", pos).arg("size", found.faults.size());
    found.faults = shrink_fault_set(ex, std::move(found.faults));
    shrink_span.arg("minimal_size", found.faults.size());
    found.minimal = true;
  }
  if (cfg.tripwire.enabled()) {
    const auto probed = run_with_faults_probed(ex, found.faults, cfg.tripwire);
    found.tripped = probed.tripped;
    found.trip_ordinal = probed.trip_ordinal;
  }
  return out;
}

// --- checkpointing ----------------------------------------------------------

const char* fault_model_name(FaultModel model) {
  switch (model) {
    case FaultModel::SingleQubit: return "single";
    case FaultModel::FullDepolarizing: return "depolarizing";
    case FaultModel::SingleQubitZ: return "single-z";
  }
  return "unknown";
}

json::Value fingerprint_json(const CampaignPlan& plan) {
  const CampaignConfig& cfg = *plan.cfg;
  json::Object fp;
  fp.emplace_back("mode", json::Value(mode_name(cfg.mode)));
  fp.emplace_back("k", json::Value(cfg.k));
  fp.emplace_back("budget", json::Value(cfg.budget));
  fp.emplace_back("sample_seed", json::Value(cfg.sample_seed));
  fp.emplace_back("experiment_seed", json::Value(plan.ex->seed));
  fp.emplace_back("fault_model",
                  json::Value(fault_model_name(plan.ex->model)));
  fp.emplace_back("num_qubits", json::Value(plan.ex->num_qubits));
  fp.emplace_back("num_sites", json::Value(plan.sites.size()));
  fp.emplace_back("single_faults", json::Value(plan.faults.size()));
  fp.emplace_back("total_items", json::Value(plan.total_items));
  fp.emplace_back("chaos_p", json::Value(cfg.chaos_model.p));
  fp.emplace_back("chaos_channel",
                  json::Value(noise::channel_name(cfg.chaos_model.channel)));
  fp.emplace_back("chaos_z_bias", json::Value(cfg.chaos_model.z_bias));
  fp.emplace_back("stream_revision", json::Value(noise::kStreamRevision));
  return json::Value(std::move(fp));
}

constexpr char kCheckpointKind[] = "eqc-campaign-checkpoint";
/// Schema 3 stores one folded prefix (next_index); schema 2 stored strided
/// shard cursors and is refused as CheckpointCorrupt.
constexpr std::uint64_t kCheckpointSchemaVersion = 3;

std::string checkpoint_to_json(const CampaignPlan& plan,
                               const CampaignState& st) {
  json::Object doc;
  doc.emplace_back("kind", json::Value(kCheckpointKind));
  doc.emplace_back("schema_version", json::Value(kCheckpointSchemaVersion));
  doc.emplace_back("fingerprint", fingerprint_json(plan));
  doc.emplace_back("next_index", json::Value(st.next_index));
  doc.emplace_back("tested", json::Value(st.counter.trials));
  doc.emplace_back("malignant", json::Value(st.counter.failures));
  json::Array sets;
  for (const auto& m : st.sets) sets.push_back(malignant_set_to_json(m));
  doc.emplace_back("malignant_sets", json::Value(std::move(sets)));
  return json::Value(std::move(doc)).dump();
}

/// Restores the folded prefix from a checkpoint.  Throws CheckpointCorrupt
/// when the document is truncated, unparseable or structurally damaged, and
/// ContractViolation on a fingerprint mismatch (a well-formed checkpoint
/// that belongs to a DIFFERENT campaign — operator error, not corruption).
CampaignState load_checkpoint(const CampaignPlan& plan,
                              const std::string& text) {
  const json::Value doc =
      parse_checkpoint_document(text, kCheckpointKind, kCheckpointSchemaVersion);
  std::string got;
  try {
    got = doc.at("fingerprint").dump();
  } catch (const json::JsonError& e) {
    throw CheckpointCorrupt(std::string("campaign checkpoint: ") + e.what());
  }
  const std::string want = fingerprint_json(plan).dump();
  if (want != got)
    throw ContractViolation(
        "campaign checkpoint fingerprint mismatch:\n  checkpoint " + got +
        "\n  campaign   " + want);

  try {
    CampaignState st;
    st.next_index = doc.at("next_index").as_u64();
    st.counter.trials = doc.at("tested").as_u64();
    st.counter.failures = doc.at("malignant").as_u64();
    for (const auto& m : doc.at("malignant_sets").as_array())
      st.sets.push_back(malignant_set_from_json(m, plan.ex->num_qubits));
    // Every malignant item contributes one set, in stream order, inside
    // the folded prefix.
    bool consistent = st.next_index <= plan.total_items &&
                      st.counter.trials <= st.next_index &&
                      st.counter.failures <= st.counter.trials &&
                      st.sets.size() == st.counter.failures;
    for (std::size_t i = 0; consistent && i < st.sets.size(); ++i)
      consistent = st.sets[i].index < st.next_index &&
                   (i == 0 || st.sets[i - 1].index < st.sets[i].index);
    if (!consistent)
      throw CheckpointCorrupt("campaign checkpoint: inconsistent progress");
    return st;
  } catch (const json::JsonError& e) {
    // The envelope and fingerprint matched but the payload does not fit the
    // schema: damaged, not foreign.
    throw CheckpointCorrupt(std::string("campaign checkpoint: ") + e.what());
  } catch (const ContractViolation& e) {
    throw CheckpointCorrupt(std::string("campaign checkpoint: ") + e.what());
  }
}

}  // namespace

// --- combinatorics ----------------------------------------------------------

std::uint64_t binomial_or_max(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t result = 1;
  for (std::uint64_t i = 1; i <= k; ++i) {
    const std::uint64_t factor = n - k + i;
    if (result > UINT64_MAX / factor) return UINT64_MAX;
    result = result * factor / i;  // exact: running value is C(n-k+i, i)
  }
  return result;
}

std::vector<std::uint32_t> combination_unrank(std::uint64_t rank,
                                              std::uint64_t n,
                                              std::size_t k) {
  EQC_EXPECTS(k >= 1 && k <= n);
  EQC_EXPECTS(rank < binomial_or_max(n, k));
  std::vector<std::uint32_t> out(k);
  std::uint64_t r = rank;
  std::uint64_t bound = n;  // exclusive upper bound for the next element
  for (std::size_t i = k; i >= 1; --i) {
    // Largest c < bound with C(c, i) <= r, by binary search on the
    // monotone c -> C(c, i) (exists: C(i-1, i) = 0 <= r).
    std::uint64_t lo = i - 1;
    std::uint64_t hi = bound - 1;
    while (lo < hi) {
      const std::uint64_t mid = lo + (hi - lo + 1) / 2;
      if (binomial_or_max(mid, i) <= r)
        lo = mid;
      else
        hi = mid - 1;
    }
    const std::uint64_t c = lo;
    out[i - 1] = static_cast<std::uint32_t>(c);
    r -= binomial_or_max(c, i);
    bound = c;
  }
  return out;
}

// --- report math ------------------------------------------------------------

double CampaignReport::p_k_coefficient() const {
  if (mode != CampaignMode::KFault) return 0.0;
  // P(exactly k sites err) ~ C(L, k) p^k; conditioned on k errors the
  // Pauli at each site is uniform, so the failure probability given k
  // errors is the malignant fraction over uniformly drawn k-sets.
  double combos = 1.0;
  const double l = static_cast<double>(num_sites);
  for (std::size_t i = 0; i < k; ++i)
    combos *= (l - static_cast<double>(i)) / static_cast<double>(i + 1);
  return combos * malignant_fraction();
}

double CampaignReport::pseudo_threshold() const {
  if (k < 2) return 1.0;
  const double a = p_k_coefficient();
  if (a <= 0.0) return 1.0;
  return std::pow(a, -1.0 / (static_cast<double>(k) - 1.0));
}

json::Value CampaignReport::to_json_value() const {
  json::Object doc;
  doc.emplace_back("version", json::Value(1));
  doc.emplace_back("engine", json::Value("eqc-campaign"));
  doc.emplace_back("stream_revision", json::Value(noise::kStreamRevision));
  doc.emplace_back("mode", json::Value(mode_name(mode)));
  doc.emplace_back("k", json::Value(k));
  doc.emplace_back("num_qubits", json::Value(num_qubits));
  doc.emplace_back("num_sites", json::Value(num_sites));
  doc.emplace_back("single_faults", json::Value(single_faults));
  doc.emplace_back("experiment_seed", json::Value(experiment_seed));
  doc.emplace_back("sample_seed", json::Value(sample_seed));
  doc.emplace_back("total_items", json::Value(total_items));
  doc.emplace_back("sets_tested", json::Value(sets_tested));
  doc.emplace_back("malignant", json::Value(malignant));
  doc.emplace_back("exhaustive", json::Value(exhaustive));
  doc.emplace_back("complete", json::Value(complete));
  doc.emplace_back("stopped_early", json::Value(stopped_early));
  doc.emplace_back("malignant_fraction", json::Value(malignant_fraction()));
  const auto iv = malignant_interval();
  doc.emplace_back("wilson_low", json::Value(iv.low));
  doc.emplace_back("wilson_high", json::Value(iv.high));
  if (mode == CampaignMode::KFault) {
    doc.emplace_back("p_k_coefficient", json::Value(p_k_coefficient()));
    doc.emplace_back("pseudo_threshold", json::Value(pseudo_threshold()));
  } else {
    doc.emplace_back("chaos_p", json::Value(chaos_p));
  }
  json::Array sets;
  for (const auto& m : malignant_sets) sets.push_back(malignant_set_to_json(m));
  doc.emplace_back("malignant_sets", json::Value(std::move(sets)));
  return json::Value(std::move(doc));
}

// --- shrinking --------------------------------------------------------------

std::vector<Fault> shrink_fault_set(const FaultExperiment& ex,
                                    std::vector<Fault> faults) {
  // ddmin specialized to single-element deltas: repeatedly drop any one
  // fault whose removal keeps the set failing, until no removal does.
  // Every run is deterministic, so the fixed point is 1-minimal.
  bool changed = true;
  while (changed && !faults.empty()) {
    changed = false;
    for (std::size_t i = 0; i < faults.size(); ++i) {
      std::vector<Fault> candidate;
      candidate.reserve(faults.size() - 1);
      for (std::size_t j = 0; j < faults.size(); ++j)
        if (j != i) candidate.push_back(faults[j]);
      if (!candidate.empty() && run_with_faults(ex, candidate)) {
        faults = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return faults;
}

// --- tripwires --------------------------------------------------------------

ProbeInjector::ProbeInjector(circuit::FaultInjector* inner,
                             std::function<bool(circuit::Backend&)> violated,
                             std::vector<std::size_t> probe_after)
    : inner_(inner),
      violated_(std::move(violated)),
      probe_after_(std::move(probe_after)) {
  EQC_EXPECTS(std::is_sorted(probe_after_.begin(), probe_after_.end()));
}

void ProbeInjector::visit(const circuit::FaultSite& site,
                          circuit::Backend& backend) {
  if (inner_ != nullptr) inner_->visit(site, backend);
  if (tripped_ || !violated_) return;
  if (!probe_after_.empty() &&
      !std::binary_search(probe_after_.begin(), probe_after_.end(),
                          site.ordinal))
    return;
  if (violated_(backend)) {
    tripped_ = true;
    trip_ordinal_ = site.ordinal;
  }
}

ProbeResult run_with_faults_probed(const FaultExperiment& ex,
                                   const std::vector<Fault>& faults,
                                   const TripwireOptions& tripwire) {
  EQC_EXPECTS(ex.failed != nullptr);
  EQC_EXPECTS(tripwire.enabled());
  circuit::TabBackend backend(ex.num_qubits, Rng(ex.seed));
  circuit::execute(ex.prep, backend);
  circuit::PlantedInjector planted;
  for (const auto& f : faults) planted.plant(f.ordinal, f.error);
  ProbeInjector probe(
      &planted,
      [&tripwire](circuit::Backend& b) {
        return tripwire.violated(static_cast<circuit::TabBackend&>(b));
      },
      tripwire.probe_after);
  const auto result = circuit::execute(ex.gadget, backend, &probe);
  EQC_ENSURES(planted.all_planted_visited());
  ProbeResult out;
  out.failed = ex.failed(backend, result);
  out.tripped = probe.tripped();
  out.trip_ordinal = probe.trip_ordinal();
  return out;
}

std::vector<std::size_t> probe_ordinals_for_op_boundaries(
    const circuit::Circuit& gadget,
    const std::vector<std::size_t>& op_boundaries) {
  // Site ordinals follow the executor's order: per moment, one site per op
  // (in moment order), then one per idle qubit.
  const circuit::Schedule sched = circuit::schedule(gadget);
  std::vector<std::size_t> op_ordinal(gadget.size());
  std::size_t ordinal = 0;
  for (std::size_t t = 0; t < sched.depth(); ++t) {
    for (const std::size_t idx : sched.moments[t]) op_ordinal[idx] = ordinal++;
    ordinal += sched.idle[t].size();
  }
  std::vector<std::size_t> out;
  for (const std::size_t boundary : op_boundaries) {
    if (boundary == 0) continue;
    EQC_EXPECTS(boundary <= gadget.size());
    out.push_back(op_ordinal[boundary - 1]);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

namespace {

/// Injector that evaluates an invariant after every site and records the
/// ordinals where it held.  Injects no faults.
class CalibrationInjector final : public circuit::FaultInjector {
 public:
  explicit CalibrationInjector(
      const std::function<bool(circuit::TabBackend&)>& violated)
      : violated_(violated) {}

  void visit(const circuit::FaultSite& site,
             circuit::Backend& backend) override {
    if (!violated_(static_cast<circuit::TabBackend&>(backend)))
      held_.push_back(site.ordinal);
  }

  std::vector<std::size_t> take_held() { return std::move(held_); }

 private:
  const std::function<bool(circuit::TabBackend&)>& violated_;
  std::vector<std::size_t> held_;
};

}  // namespace

std::vector<std::size_t> calibrate_probe_sites(
    const FaultExperiment& ex,
    const std::function<bool(circuit::TabBackend&)>& violated) {
  EQC_EXPECTS(static_cast<bool>(violated));
  circuit::TabBackend backend(ex.num_qubits, Rng(ex.seed));
  circuit::execute(ex.prep, backend);
  CalibrationInjector calibrate(violated);
  circuit::execute(ex.gadget, backend, &calibrate);
  auto held = calibrate.take_held();
  std::sort(held.begin(), held.end());
  held.erase(std::unique(held.begin(), held.end()), held.end());
  return held;
}

// --- replay artifacts -------------------------------------------------------

std::vector<std::vector<Fault>> parse_fault_sets(const std::string& json_text,
                                                 std::size_t num_qubits) {
  const json::Value doc = json::Value::parse(json_text);
  std::vector<std::vector<Fault>> out;
  for (const auto& m : doc.at("malignant_sets").as_array())
    out.push_back(malignant_set_from_json(m, num_qubits).faults);
  return out;
}

// --- the campaign driver ----------------------------------------------------

CampaignReport run_campaign(const FaultExperiment& ex,
                            const CampaignConfig& cfg) {
  EQC_EXPECTS(ex.failed != nullptr);
  EQC_EXPECTS(cfg.mode != CampaignMode::Chaos || cfg.budget > 0);
  EQC_EXPECTS(cfg.engine == "trials" || cfg.engine == "frames");

  CampaignPlan plan;
  plan.ex = &ex;
  plan.cfg = &cfg;
  plan.faults = enumerate_single_faults(ex);
  plan.sites = circuit::enumerate_fault_sites(ex.gadget);
  if (cfg.engine == "frames") {
    try {
      auto fp = std::make_shared<FramePlan>(
          FramePlan{frame::FrameProgram(ex.num_qubits, ex.prep, ex.gadget,
                                        ex.seed),
                    frame::BatchOracle{}});
      fp->oracle = make_generic_frame_oracle(ex, fp->prog);
      plan.frames = std::move(fp);
    } catch (const ContractViolation&) {
      // Non-Clifford or otherwise non-compilable gadget: degrade to the
      // per-trial engine (identical verdicts, just slower).
    } catch (const frame::FrameUnsupported&) {
    }
  }

  if (cfg.mode == CampaignMode::KFault) {
    EQC_EXPECTS(cfg.k >= 1 && cfg.k <= plan.faults.size());
    const std::uint64_t total_combos =
        binomial_or_max(plan.faults.size(), cfg.k);
    if (cfg.budget == 0 || total_combos <= cfg.budget) {
      // A fully exhaustive sweep must have an enumerable universe.
      EQC_EXPECTS(total_combos != UINT64_MAX);
      plan.exhaustive = true;
      plan.total_items = total_combos;
    } else {
      plan.sampled_ranks = sample_distinct_ranks(
          total_combos, cfg.budget, plan.faults.size(), cfg.k,
          cfg.sample_seed, plan.faults);
      plan.total_items = plan.sampled_ranks.size();
    }
  } else {
    plan.total_items = cfg.budget;
    plan.chaos.emplace(cfg.chaos_model);
  }

  // --- restore or initialize the folded prefix. ----------------------------
  CampaignState st;
  if (cfg.resume && !cfg.checkpoint_path.empty()) {
    std::string text;
    if (read_file(cfg.checkpoint_path, text)) {
      try {
        st = load_checkpoint(plan, text);
      } catch (const CheckpointCorrupt&) {
        // A damaged checkpoint is recoverable when the caller says so:
        // determinism guarantees a fresh start reaches the same final
        // report, so quarantine the evidence and recount.
        if (!cfg.fresh_on_corrupt) throw;
        quarantine_corrupt_file(cfg.checkpoint_path);
      }
    }
  }

  // --- the sweep. -----------------------------------------------------------
  // Per-stratum counters ("campaign.k2.sets_tested", "campaign.chaos.trials",
  // ...) so a sweep that mixes strata shows where the budget goes.  They
  // count folded items only, so totals of a completed run are
  // jobs-invariant, hence Det::Stable.
  const std::string stratum =
      cfg.mode == CampaignMode::KFault ? "k" + std::to_string(cfg.k) : "chaos";
  obs::Counter& c_tested = obs::counter(
      "campaign." + stratum +
          (cfg.mode == CampaignMode::KFault ? ".sets_tested" : ".trials"),
      obs::Det::Stable);
  obs::Counter& c_malignant =
      obs::counter("campaign." + stratum + ".malignant", obs::Det::Stable);
  obs::Counter& c_shrunk =
      obs::counter("campaign.shrunk_sets", obs::Det::Stable);
  obs::Span run_span("campaign.run");
  run_span.arg("total_items", plan.total_items);

  CheckpointCadence cadence(cfg.checkpoint_every,
                            cfg.checkpoint_min_interval_sec);
  // Checkpoint and progress run under the sweep's fold lock.
  auto checkpoint = [&] {
    if (!cfg.checkpoint_path.empty())
      write_file_atomically(cfg.checkpoint_path, checkpoint_to_json(plan, st));
    if (cfg.on_progress)
      cfg.on_progress(CampaignProgress{st.next_index, plan.total_items,
                                       st.counter.trials,
                                       st.counter.failures});
  };

  parallel::SweepOptions sweep_opt;
  sweep_opt.jobs = cfg.jobs;
  sweep_opt.stop = cfg.stop;
  sweep_opt.progress = [&](std::uint64_t next) {
    st.next_index = next;
    if (!cadence.item_done()) return;
    checkpoint();
    cadence.wrote();
  };
  const std::uint64_t last =
      cfg.max_items_this_run == 0
          ? plan.total_items
          : std::min(plan.total_items,
                     st.next_index + cfg.max_items_this_run);
  st.next_index = parallel::sweep(
      st.next_index, last, sweep_opt,
      [&](unsigned, std::uint64_t pos) {
        return std::optional<ItemOutcome>(evaluate_item(plan, pos));
      },
      [&](std::uint64_t, ItemOutcome& outcome) {
        if (outcome.tested) {
          st.counter.add(outcome.malignant);
          c_tested.add(1);
        }
        if (outcome.malignant) {
          c_malignant.add(1);
          if (outcome.found.minimal) c_shrunk.add(1);
          st.sets.push_back(std::move(outcome.found));
        }
        return true;
      });
  checkpoint();  // never lose a clean (or cancelled) stop's progress

  CampaignReport report;
  report.mode = cfg.mode;
  report.k = cfg.mode == CampaignMode::KFault ? cfg.k : 0;
  report.num_qubits = ex.num_qubits;
  report.num_sites = plan.sites.size();
  report.single_faults = plan.faults.size();
  report.total_items = plan.total_items;
  report.experiment_seed = ex.seed;
  report.sample_seed = cfg.sample_seed;
  report.chaos_p = cfg.chaos_model.p;

  const bool complete = st.next_index == plan.total_items;
  report.malignant_sets = std::move(st.sets);
  report.sets_tested = st.counter.trials;
  report.malignant = st.counter.failures;
  report.complete = complete;
  report.exhaustive = plan.exhaustive && complete;
  return report;
}

}  // namespace eqc::analysis
