// perfbench — the measuring program of the repository benchmark.
//
//   perfbench INPUT.json
//
// INPUT.json is written by run.py from the workload seed; this program sees
// only the generated inputs (cells, experiment seeds, sizes), never the
// seed itself.  It repeats the named workload's set-up and engine calls for
// the requested number of seconds, checks the outputs outside the timed
// phase, and writes "result.json" (holding the
// per-layer metrics when traced, next to the Chrome trace "trace.json") into
// the input's out_dir.  README.md defines every workload and metric.
//
// Every call below goes through the libraries' public headers; the traced
// run wraps each layer call in an obs::Span named after the per-layer
// metric it feeds, and derives those metrics from the collected trace.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/campaign.h"
#include "analysis/experiments.h"
#include "analysis/fault_enum.h"
#include "analysis/frame_oracle.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "common/assert.h"
#include "common/checkpoint.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "frame/driver.h"
#include "frame/frames.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eqc::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

// Probe sizes of the traced run.  They only bound how long each layer is
// sampled; the per-layer metrics are per-call averages.
constexpr std::uint64_t kSamplingDivisor = 4;   // of the mc_rate unit's batches
constexpr std::size_t kCertifyStride = 16;      // every 16th single fault
constexpr std::size_t kReplaySets = 1024;       // random k-fault sets
constexpr std::size_t kShrinkSets = 512;        // raw malignant sets shrunk

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process user + system CPU seconds (all threads).
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double median(std::vector<double> v) {
  EQC_EXPECTS(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

analysis::GadgetSpec spec_from(const json::Value& cell) {
  analysis::GadgetSpec spec;
  spec.gadget = cell.at("gadget").as_string();
  spec.scenario.code = cell.at("code").as_string();
  spec.scenario.repetition_k = static_cast<int>(cell.at("k").as_i64());
  spec.seed = cell.at("seed").as_u64();
  return spec;
}

/// Checked outputs: attempted vs wrong (error_frac = failed / attempted).
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Per-layer values that are counted rather than timed, filled by the
/// probes of all three workloads.
struct Layers {
  std::uint64_t planted_runs = 0;   // 1-lane planted verdicts attempted
  std::uint64_t unsupported = 0;    // ... of which threw FrameUnsupported
  std::uint64_t planted64_sets = 0;
  std::optional<double> malignant_frac;
  std::optional<double> checkpoint_writes;
  std::optional<double> checkpoint_write_ms_p50;
  std::optional<double> checkpoint_bytes;
};

// --- obs snapshot access ----------------------------------------------------

const json::Value* obs_metric(const json::Value& snap, const char* section,
                              const char* kind, const char* name) {
  const json::Value* sec = snap.find(section);
  const json::Value* group = sec == nullptr ? nullptr : sec->find(kind);
  return group == nullptr ? nullptr : group->find(name);
}

/// A counter's value, or 0 when it was never registered (no increments).
std::uint64_t obs_counter(const json::Value& snap, const char* section,
                          const char* name) {
  const json::Value* v = obs_metric(snap, section, "counters", name);
  return v == nullptr ? 0 : v->as_u64();
}

/// Median of the samples a histogram gained between two snapshots, linearly
/// interpolated inside its bucket; nullopt when it gained none.
std::optional<double> histogram_p50(const json::Value& before,
                                    const json::Value& after,
                                    const char* name) {
  const json::Value* h1 = obs_metric(after, "runtime", "histograms", name);
  if (h1 == nullptr) return std::nullopt;
  const json::Value* h0 = obs_metric(before, "runtime", "histograms", name);
  const auto& bounds = h1->at("boundaries").as_array();
  const auto& counts = h1->at("counts").as_array();
  std::vector<double> delta(counts.size());
  double total = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const std::uint64_t prev =
        h0 == nullptr ? 0 : h0->at("counts").as_array()[i].as_u64();
    delta[i] = static_cast<double>(counts[i].as_u64() - prev);
    total += delta[i];
  }
  if (total == 0) return std::nullopt;
  double below = 0;
  for (std::size_t i = 0; i < delta.size(); ++i) {
    if (below + delta[i] >= total / 2 && delta[i] > 0) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1].as_double();
      const double hi = i < bounds.size() ? bounds[i].as_double() : lo;
      return lo + (hi - lo) * (total / 2 - below) / delta[i];
    }
    below += delta[i];
  }
  return std::nullopt;
}

// --- workloads --------------------------------------------------------------

/// One benchmark workload.  setup() is everything done before the first
/// engine call; run() is one timed repetition of the engine calls.
class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Builds every input of run() from scratch.
  virtual void setup() = 0;
  /// One timed repetition; returns the items (trials or fault sets) done.
  virtual std::uint64_t run() = 0;
  /// Serializes the last repetition's result (the user-visible report).
  virtual std::string report() const = 0;
  /// Reference checks on the last repetition's result.
  virtual void check(Tally& t) const = 0;
  /// Traced layer probes (spans named after the per-layer metrics).
  virtual void probe(Layers& layers) = 0;

  unsigned jobs() const { return jobs_; }
  const std::vector<analysis::GadgetSpec>& cells() const { return cells_; }

 protected:
  unsigned jobs_ = 1;
  std::vector<analysis::GadgetSpec> cells_;
};

/// mc_rate: stochastic failure-rate estimation on the frame engine.
class McRate final : public Workload {
 public:
  explicit McRate(const json::Value& in) {
    jobs_ = static_cast<unsigned>(in.at("jobs").as_u64());
    check_trials_ = in.at("check_trials").as_u64();
    for (const auto& c : in.at("cells").as_array()) {
      cells_.push_back(spec_from(c));
      p_.push_back(c.at("p").as_double());
      trials_.push_back(c.at("trials").as_u64());
    }
  }

  void setup() override {
    ready_.clear();
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      analysis::BuiltGadget built =
          analysis::build_gadget_experiment(cells_[i]);
      frame::FrameProgram prog = analysis::make_frame_program(built.ex);
      frame::BatchOracle oracle =
          analysis::make_frame_oracle(cells_[i].gadget, built, prog);
      ready_.push_back(Ready{
          std::move(built), std::move(prog), std::move(oracle),
          analysis::scenario_noise_model(cells_[i].scenario, p_[i])});
    }
  }

  std::uint64_t run() override {
    last_.clear();
    std::uint64_t items = 0;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Ready& r = ready_[i];
      last_.push_back(frame::run_trials(r.prog, r.model, trials_[i],
                                        cells_[i].seed, r.oracle, jobs_));
      items += trials_[i];
    }
    return items;
  }

  std::string report() const override {
    json::Array out;
    for (const auto& c : last_) out.push_back(c.to_json_value());
    return json::Value(std::move(out)).dump();
  }

  /// On the first check_trials indices of every cell, the frame driver's
  /// counter is byte-identical to the canonical per-trial lambda's.
  void check(Tally& t) const override {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Ready& r = ready_[i];
      const auto frames = frame::run_trials(r.prog, r.model, check_trials_,
                                            cells_[i].seed, r.oracle, jobs_);
      const analysis::FaultExperiment& ex = r.built.ex;
      const noise::NoiseModel model = r.model;
      const auto trials = noise::run_trials_indexed(
          check_trials_, cells_[i].seed,
          [&ex, model](std::uint64_t, Rng& rng) {
            circuit::TabBackend backend(ex.num_qubits, rng.split());
            circuit::execute(ex.prep, backend);
            noise::StochasticInjector injector(model, rng.split());
            const auto res = circuit::execute(ex.gadget, backend, &injector);
            return ex.failed(backend, res);
          },
          jobs_);
      t.expect(frames.to_json_value().dump() == trials.to_json_value().dump());
    }
  }

  /// Sampling / tape / word-oracle split: the unit's batch mix scaled down
  /// by kSamplingDivisor, run serially on one FrameBatch per cell.
  void probe(Layers&) override {
    const std::vector<std::vector<frame::PlantedFault>> empty(
        frame::FrameBatch::kLanes);
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const Ready& r = ready_[i];
      frame::FrameBatch batch(r.prog);
      const std::uint64_t tiles = std::max<std::uint64_t>(
          1, trials_[i] / frame::FrameBatch::kLanes / kSamplingDivisor);
      for (std::uint64_t tile = 0; tile < tiles; ++tile) {
        {
          obs::Span s("frame.stochastic_us_per_batch");
          batch.run_stochastic(r.model, cells_[i].seed,
                               tile * frame::FrameBatch::kLanes,
                               frame::FrameBatch::kLanes);
        }
        {
          obs::Span s("analysis.word_oracle_us_per_batch");
          r.oracle(batch);
        }
        {
          obs::Span s("frame.tape_us_per_batch");
          batch.run_planted(empty);
        }
      }
    }
  }

 private:
  struct Ready {
    analysis::BuiltGadget built;
    frame::FrameProgram prog;
    frame::BatchOracle oracle;
    noise::NoiseModel model;
  };

  std::uint64_t check_trials_ = 0;
  std::vector<double> p_;
  std::vector<std::uint64_t> trials_;
  std::vector<Ready> ready_;
  std::vector<FailureCounter> last_;
};

/// Shared by the campaign workloads: the frames engine, fixed workers.
analysis::CampaignConfig campaign_config(unsigned jobs) {
  analysis::CampaignConfig cfg;
  cfg.mode = analysis::CampaignMode::KFault;
  cfg.jobs = jobs;
  cfg.engine = "frames";
  return cfg;
}

/// Times one 1-lane planted verdict the way the campaign engine runs it;
/// returns the batch, or nullopt when the set is not frame-simulable.
std::optional<frame::FrameBatch> planted1(
    const frame::FrameProgram& prog, const std::vector<analysis::Fault>& set,
    Layers& layers) {
  std::vector<std::vector<frame::PlantedFault>> lanes(1);
  for (const auto& f : set)
    lanes[0].push_back(frame::PlantedFault{f.ordinal, f.error});
  ++layers.planted_runs;
  std::optional<frame::FrameBatch> batch;
  try {
    obs::Span s("frame.planted1_us_per_set");
    batch.emplace(prog);
    batch->run_planted(lanes);
  } catch (const frame::FrameUnsupported&) {
    ++layers.unsupported;
    batch.reset();
  }
  return batch;
}

/// certify_k1: exhaustive single-fault campaigns (claim (ii) certificate).
class CertifyK1 final : public Workload {
 public:
  explicit CertifyK1(const json::Value& in) {
    jobs_ = static_cast<unsigned>(in.at("jobs").as_u64());
    for (const auto& c : in.at("cells").as_array())
      cells_.push_back(spec_from(c));
  }

  void setup() override {
    built_.clear();
    for (const auto& spec : cells_)
      built_.push_back(analysis::build_gadget_experiment(spec));
  }

  std::uint64_t run() override {
    analysis::CampaignConfig cfg = campaign_config(jobs_);
    cfg.k = 1;
    cfg.budget = 0;
    cfg.shrink = false;
    last_.clear();
    std::uint64_t items = 0;
    for (const auto& b : built_) {
      last_.push_back(analysis::run_campaign(b.ex, cfg));
      items += last_.back().sets_tested;
    }
    return items;
  }

  std::string report() const override {
    std::string out;
    for (const auto& r : last_) out += r.to_json() + "\n";
    return out;
  }

  void check(Tally& t) const override {
    for (std::size_t i = 0; i < built_.size(); ++i) {
      const auto& r = last_[i];
      t.expect(r.sets_tested ==
                   analysis::enumerate_single_faults(built_[i].ex).size() &&
               r.exhaustive && r.complete && r.malignant == 0);
    }
  }

  /// Planted-verdict split on every kCertifyStride-th single fault of each
  /// cell (so cells weigh in as they do in the exhaustive sweep).
  void probe(Layers& layers) override {
    for (const auto& b : built_) {
      const auto faults = analysis::enumerate_single_faults(b.ex);
      const frame::FrameProgram prog = analysis::make_frame_program(b.ex);
      const frame::BatchOracle generic =
          analysis::make_generic_frame_oracle(b.ex, prog);
      std::vector<std::vector<frame::PlantedFault>> lanes;
      frame::FrameBatch packed(prog);
      for (std::size_t i = 0; i < faults.size(); i += kCertifyStride) {
        const auto batch = planted1(prog, {faults[i]}, layers);
        if (batch) {
          obs::Span s("analysis.generic_oracle_us_per_set");
          generic(*batch);
        }
        lanes.push_back({frame::PlantedFault{faults[i].ordinal,
                                             faults[i].error}});
        if (lanes.size() == frame::FrameBatch::kLanes) {
          try {
            obs::Span s("frame.planted64_us_per_set");
            packed.run_planted(lanes);
            layers.planted64_sets += lanes.size();
          } catch (const frame::FrameUnsupported&) {
          }
          lanes.clear();
        }
      }
    }
  }

 private:
  std::vector<analysis::BuiltGadget> built_;
  std::vector<analysis::CampaignReport> last_;
};

/// shrink_k3: a budgeted k-fault campaign with shrinking and checkpoints.
class ShrinkK3 final : public Workload {
 public:
  ShrinkK3(const json::Value& in, std::string checkpoint_path)
      : checkpoint_path_(std::move(checkpoint_path)) {
    jobs_ = static_cast<unsigned>(in.at("jobs").as_u64());
    cells_.push_back(spec_from(in.at("cell")));
    k_ = in.at("k").as_u64();
    budget_ = in.at("budget").as_u64();
    sample_seed_ = in.at("sample_seed").as_u64();
    checkpoint_every_ = in.at("checkpoint_every").as_u64();
  }

  void setup() override {
    built_.emplace(analysis::build_gadget_experiment(cells_[0]));
  }

  std::uint64_t run() override {
    last_ = campaign(true, checkpoint_path_);
    return last_.sets_tested;
  }

  std::string report() const override { return last_.to_json(); }

  /// Every reported set replays to failure and is 1-minimal.
  void check(Tally& t) const override {
    const analysis::FaultExperiment& ex = built_->ex;
    t.expect(last_.sets_tested == budget_ &&
             last_.malignant == last_.malignant_sets.size());
    const auto& sets = last_.malignant_sets;
    std::atomic<std::uint64_t> wrong{0};
    const unsigned shards = 4 * jobs_;
    parallel::for_each_shard(shards, jobs_, [&](unsigned s) {
      for (std::size_t i = s; i < sets.size(); i += shards) {
        const auto& faults = sets[i].faults;
        bool ok = sets[i].minimal && analysis::run_with_faults(ex, faults);
        for (std::size_t drop = 0; ok && drop < faults.size(); ++drop) {
          std::vector<analysis::Fault> rest = faults;
          rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(drop));
          ok = rest.empty() || !analysis::run_with_faults(ex, rest);
        }
        if (!ok) wrong.fetch_add(1);
      }
    });
    t.attempted += sets.size();
    t.failed += wrong.load();
  }

  void probe(Layers& layers) override {
    const analysis::FaultExperiment& ex = built_->ex;
    const frame::FrameProgram prog = analysis::make_frame_program(ex);

    // Per-trial replay (and frame-simulability) of random k-fault sets.
    const auto faults = analysis::enumerate_single_faults(ex);
    Rng rng(sample_seed_);
    for (std::size_t n = 0; n < kReplaySets; ++n) {
      std::vector<analysis::Fault> set;
      while (set.size() < k_) {
        const auto& f = faults[rng.below(faults.size())];
        if (std::none_of(set.begin(), set.end(), [&](const auto& g) {
              return g.ordinal == f.ordinal;
            }))
          set.push_back(f);
      }
      planted1(prog, set, layers);
      obs::Span s("circuit.replay_us_per_set");
      analysis::run_with_faults(ex, set);
    }

    // Raw (unshrunk) malignant sets, then the shrinker on a prefix of them.
    const auto raw = campaign(false, "");
    layers.malignant_frac = raw.malignant_fraction();
    const std::size_t n_shrink =
        std::min(kShrinkSets, raw.malignant_sets.size());
    for (std::size_t i = 0; i < n_shrink; ++i) {
      obs::Span s("analysis.shrink_ms_per_set");
      analysis::shrink_fault_set(ex, raw.malignant_sets[i].faults);
    }

    // The workload unit with and without its checkpoint file.
    const json::Value before = obs::Registry::global().snapshot();
    {
      obs::Span s("shrink_k3.with_checkpoint");
      run();
    }
    const json::Value after = obs::Registry::global().snapshot();
    {
      obs::Span s("shrink_k3.without_checkpoint");
      campaign(true, "");
    }
    layers.checkpoint_writes = static_cast<double>(
        obs_counter(after, "runtime", "checkpoint.writes") -
        obs_counter(before, "runtime", "checkpoint.writes"));
    layers.checkpoint_write_ms_p50 =
        histogram_p50(before, after, "checkpoint.write_ms");
    layers.checkpoint_bytes =
        static_cast<double>(std::filesystem::file_size(checkpoint_path_));
  }

 private:
  analysis::CampaignReport campaign(bool shrink,
                                    const std::string& checkpoint) const {
    analysis::CampaignConfig cfg = campaign_config(jobs_);
    cfg.k = k_;
    cfg.budget = budget_;
    cfg.sample_seed = sample_seed_;
    cfg.shrink = shrink;
    cfg.checkpoint_path = checkpoint;
    cfg.checkpoint_every = checkpoint_every_;
    if (!checkpoint.empty()) std::filesystem::remove(checkpoint);
    return analysis::run_campaign(built_->ex, cfg);
  }

  std::string checkpoint_path_;
  std::size_t k_ = 3;
  std::uint64_t budget_ = 0;
  std::uint64_t sample_seed_ = 0;
  std::uint64_t checkpoint_every_ = 0;
  std::optional<analysis::BuiltGadget> built_;
  analysis::CampaignReport last_;
};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const json::Value& in,
                                        const std::string& out_dir) {
  const json::Value& w = in.at(name);
  if (name == "mc_rate") return std::make_unique<McRate>(w);
  if (name == "certify_k1") return std::make_unique<CertifyK1>(w);
  if (name == "shrink_k3")
    return std::make_unique<ShrinkK3>(w, out_dir + "/shrink_k3.ckpt");
  throw ContractViolation("unknown workload: " + name);
}

// --- phases -----------------------------------------------------------------

/// Times set-up repetitions into `times`: at least one, and at least 20 ms
/// worth so that set-ups of a few microseconds are measurable (capped at
/// 5000 repetitions).
void timed_setup(Workload& w, std::vector<double>& times) {
  const auto t0 = Clock::now();
  for (std::size_t n = 0; n == 0 || (seconds_since(t0) < 0.02 && n < 5000);
       ++n) {
    const auto t = Clock::now();
    w.setup();
    times.push_back(seconds_since(t));
  }
}

struct Unit {
  std::uint64_t items = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double report_s = 0;
  std::string report;
};

Unit timed_unit(Workload& w) {
  Unit u;
  const double c0 = cpu_seconds();
  const auto t0 = Clock::now();
  u.items = w.run();
  u.wall_s = seconds_since(t0);
  u.cpu_s = cpu_seconds() - c0;
  const auto t1 = Clock::now();
  u.report = w.report();
  u.report_s = seconds_since(t1);
  return u;
}

/// Repeats units until `seconds` have elapsed (at least `min_units`).  With
/// `setups`, every unit runs on a fresh set-up whose repetitions are timed
/// into it: machine speed on a shared host drifts within a run, and
/// sampling set-up across the whole run, like the units, keeps that drift
/// out of setup_s.
std::vector<Unit> timed_units(Workload& w, double seconds,
                              std::size_t min_units,
                              std::vector<double>* setups = nullptr) {
  std::vector<Unit> units;
  const auto t0 = Clock::now();
  while (units.size() < min_units || seconds_since(t0) < seconds) {
    if (setups != nullptr) timed_setup(w, *setups);
    units.push_back(timed_unit(w));
  }
  return units;
}

/// Every repetition reproduces the first one's report byte for byte.
void check_repeatable(const std::vector<Unit>& units, Tally& t) {
  for (std::size_t i = 1; i < units.size(); ++i)
    t.expect(units[i].report == units[0].report);
}

json::Value metric(double value, const char* unit) {
  json::Object m;
  m.emplace_back("value", json::Value(value));
  m.emplace_back("unit", json::Value(unit));
  return json::Value(std::move(m));
}

json::Object end_to_end(Workload& w, double seconds, Tally& t) {
  std::vector<double> setups;
  const auto units = timed_units(w, seconds, 1, &setups);
  const double setup_s = median(setups);
  w.check(t);
  check_repeatable(units, t);

  std::vector<double> rate, wall, cpu_us, report;
  for (const auto& u : units) {
    rate.push_back(static_cast<double>(u.items) / u.wall_s);
    wall.push_back(u.wall_s);
    cpu_us.push_back(1e6 * u.cpu_s / static_cast<double>(u.items));
    report.push_back(u.report_s);
  }
  std::fprintf(stderr, "perfbench: %zu units of %llu items, %u workers:",
               units.size(), static_cast<unsigned long long>(units[0].items),
               w.jobs());
  for (const auto& u : units) std::fprintf(stderr, " %.3fs", u.wall_s);
  std::fprintf(stderr, "\n");
  json::Object m;
  m.emplace_back("items_per_s", metric(median(rate), "1/s"));
  m.emplace_back("wall_s",
                 metric(setup_s + median(wall) + median(report), "s"));
  m.emplace_back("setup_s", metric(setup_s, "s"));
  m.emplace_back("cpu_us_per_item", metric(median(cpu_us), "us"));
  m.emplace_back("peak_rss_mb", metric(peak_rss_mb(), "MB"));
  return m;
}

/// Sum of durations (us) and count of the trace's complete events, by name.
std::map<std::string, std::pair<double, std::uint64_t>> span_totals() {
  std::map<std::string, std::pair<double, std::uint64_t>> out;
  const json::Value doc = json::Value::parse(obs::trace_json());
  for (const auto& ev : doc.at("traceEvents").as_array()) {
    if (ev.at("ph").as_string() != "X") continue;
    auto& slot = out[ev.at("name").as_string()];
    slot.first += ev.at("dur").as_double();
    slot.second += 1;
  }
  return out;
}

json::Object per_layer(Workload& w, const json::Value& in,
                       const std::string& out_dir, double seconds, Tally& t) {
  w.setup();
  std::vector<double> plain;
  {
    const auto units = timed_units(w, seconds / 2, 1);
    for (const auto& u : units) plain.push_back(u.wall_s);
    w.check(t);
    check_repeatable(units, t);
  }

  obs::install_trace_sink();
  obs::set_thread_label("main");
  const json::Value before = obs::Registry::global().snapshot();
  std::vector<double> traced;
  for (const auto& u : timed_units(w, 0, plain.size()))
    traced.push_back(u.wall_s);
  const json::Value after = obs::Registry::global().snapshot();

  // Set-up split on this workload's own cells.
  const std::size_t reps = 5;
  for (std::size_t r = 0; r < reps; ++r) {
    for (const auto& spec : w.cells()) {
      std::optional<analysis::BuiltGadget> built;
      {
        obs::Span s("ftqc.build_s");
        built.emplace(analysis::build_gadget_experiment(spec));
      }
      std::optional<frame::FrameProgram> prog;
      {
        obs::Span s("frame.compile_s");
        prog.emplace(analysis::make_frame_program(built->ex));
      }
      obs::Span s("analysis.oracle_build_s");
      analysis::make_frame_oracle(spec.gadget, *built, *prog);
    }
  }

  // Every workload's layer probes, so each traced run reports every layer.
  Layers layers;
  for (const char* name : {"mc_rate", "certify_k1", "shrink_k3"}) {
    auto probe = make_workload(name, in, out_dir);
    probe->setup();
    probe->probe(layers);
  }
  EQC_CHECK(obs::write_trace_file(out_dir + "/trace.json"));

  // A metric whose source was not recorded is left out, never written as 0.
  using Opt = std::optional<double>;
  const auto spans = span_totals();
  auto total_us = [&](const char* name) -> Opt {
    const auto it = spans.find(name);
    if (it == spans.end()) return std::nullopt;
    return it->second.first;
  };
  auto mean_us = [&](const char* name) -> Opt {
    const auto it = spans.find(name);
    if (it == spans.end()) return std::nullopt;
    return it->second.first / static_cast<double>(it->second.second);
  };
  auto ratio = [](Opt num, Opt den, double scale = 1.0) -> Opt {
    if (!num || !den || *den == 0) return std::nullopt;
    return scale * *num / *den;
  };
  auto counter_delta = [&](const char* section, const char* name) {
    return static_cast<double>(obs_counter(after, section, name) -
                               obs_counter(before, section, name));
  };
  const Opt units = static_cast<double>(traced.size());
  const Opt reps_done = static_cast<double>(reps);
  // Pool busy/idle time is recorded only while timing is on (trace sink).
  const Opt busy_s = 1e-6 * counter_delta("runtime", "parallel.busy_us");
  const Opt idle_s = 1e-6 * counter_delta("runtime", "parallel.idle_us");
  const Opt stochastic = mean_us("frame.stochastic_us_per_batch");
  const Opt tape = mean_us("frame.tape_us_per_batch");
  const Opt with_ckpt = total_us("shrink_k3.with_checkpoint");
  const Opt without_ckpt = total_us("shrink_k3.without_checkpoint");

  json::Object m;
  auto put = [&m](const char* name, Opt v, const char* unit) {
    if (v) m.emplace_back(name, metric(*v, unit));
  };
  put("ftqc.build_s", ratio(total_us("ftqc.build_s"), reps_done, 1e-6), "s");
  put("frame.compile_s", ratio(total_us("frame.compile_s"), reps_done, 1e-6),
      "s");
  put("analysis.oracle_build_s",
      ratio(total_us("analysis.oracle_build_s"), reps_done, 1e-6), "s");
  put("frame.stochastic_us_per_batch", stochastic, "us");
  put("frame.tape_us_per_batch", tape, "us");
  if (const Opt share = ratio(tape, stochastic))
    put("frame.sample_share", 1.0 - *share, "frac");
  put("analysis.word_oracle_us_per_batch",
      mean_us("analysis.word_oracle_us_per_batch"), "us");
  put("frame.planted1_us_per_set", mean_us("frame.planted1_us_per_set"), "us");
  put("frame.planted64_us_per_set",
      ratio(total_us("frame.planted64_us_per_set"),
            static_cast<double>(layers.planted64_sets)),
      "us");
  put("analysis.generic_oracle_us_per_set",
      mean_us("analysis.generic_oracle_us_per_set"), "us");
  put("frame.unsupported_frac",
      ratio(static_cast<double>(layers.unsupported),
            static_cast<double>(layers.planted_runs)),
      "frac");
  put("circuit.replay_us_per_set", mean_us("circuit.replay_us_per_set"), "us");
  put("analysis.shrink_ms_per_set",
      ratio(mean_us("analysis.shrink_ms_per_set"), 1e3), "ms");
  put("analysis.malignant_frac", layers.malignant_frac, "frac");
  put("common.checkpoint.writes", layers.checkpoint_writes, "count");
  put("common.checkpoint.write_ms_p50", layers.checkpoint_write_ms_p50, "ms");
  put("common.checkpoint.bytes", layers.checkpoint_bytes, "bytes");
  if (with_ckpt && without_ckpt)
    put("common.checkpoint.overhead_s", 1e-6 * (*with_ckpt - *without_ckpt),
        "s");
  put("common.parallel.busy_s", ratio(busy_s, units), "s");
  put("common.parallel.idle_s", ratio(idle_s, units), "s");
  put("common.parallel.idle_share", ratio(idle_s, *busy_s + *idle_s), "frac");
  put("noise.mc_trials", counter_delta("metrics", "mc.trials"), "count");
  put("obs.trace_overhead_frac", median(traced) / median(plain) - 1.0, "frac");
  return m;
}

int run_main(const std::string& input_path) {
  std::string text;
  if (!read_file(input_path, text)) {
    std::fprintf(stderr, "perfbench: cannot read %s\n", input_path.c_str());
    return 2;
  }
  const json::Value in = json::Value::parse(text);
  const std::string name = in.at("workload").as_string();
  const std::string out_dir = in.at("out_dir").as_string();
  const double seconds = in.at("seconds").as_double();
  const bool trace = in.at("trace").as_bool();

  Tally t;
  json::Object metrics;
  try {
    auto w = make_workload(name, in, out_dir);
    metrics = trace ? per_layer(*w, in, out_dir, seconds, t)
                    : end_to_end(*w, seconds, t);
  } catch (const std::exception& e) {
    // A thrown run counts every item as wrong.
    std::fprintf(stderr, "perfbench: %s failed: %s\n", name.c_str(), e.what());
    t.attempted = std::max<std::uint64_t>(t.attempted, 1);
    t.failed = t.attempted;
    metrics.clear();
  }

  json::Object result;
  result.emplace_back("correct", json::Value(t.failed == 0));
  result.emplace_back("attempted", json::Value(t.attempted));
  result.emplace_back("failed", json::Value(t.failed));
  result.emplace_back("metrics", json::Value(std::move(metrics)));
  write_file_atomically(out_dir + "/result.json",
                        json::Value(std::move(result)).dump() + "\n");
  return 0;
}

}  // namespace
}  // namespace eqc::perfbench

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: perfbench INPUT.json\n");
    return 2;
  }
  return eqc::perfbench::run_main(argv[1]);
}
