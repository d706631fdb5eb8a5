#include "serve/jobs.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "analysis/campaign.h"
#include "analysis/matrix.h"
#include "codes/css_code.h"
#include "common/assert.h"
#include "common/checkpoint.h"
#include "common/parallel.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"
#include "testing/fuzz.h"

namespace eqc::serve {

namespace {

constexpr char kMcCheckpointKind[] = "eqc-mc-checkpoint";
constexpr std::uint64_t kMcCheckpointSchemaVersion = 1;

std::uint64_t get_u64(const json::Value& v, const char* key,
                      std::uint64_t def) {
  const json::Value* m = v.find(key);
  return m == nullptr ? def : m->as_u64();
}

double get_double(const json::Value& v, const char* key, double def) {
  const json::Value* m = v.find(key);
  return m == nullptr ? def : m->as_double();
}

bool get_bool(const json::Value& v, const char* key, bool def) {
  const json::Value* m = v.find(key);
  return m == nullptr ? def : m->as_bool();
}

std::string get_string(const json::Value& v, const char* key,
                       const std::string& def) {
  const json::Value* m = v.find(key);
  return m == nullptr ? def : m->as_string();
}

std::vector<std::string> get_string_array(const json::Value& v,
                                          const char* key,
                                          std::vector<std::string> def) {
  const json::Value* m = v.find(key);
  if (m == nullptr) return def;
  std::vector<std::string> out;
  for (const auto& e : m->as_array()) out.push_back(e.as_string());
  return out;
}

std::vector<int> get_int_array(const json::Value& v, const char* key,
                               std::vector<int> def) {
  const json::Value* m = v.find(key);
  if (m == nullptr) return def;
  std::vector<int> out;
  for (const auto& e : m->as_array())
    out.push_back(static_cast<int>(e.as_i64()));
  return out;
}

json::Array to_json_array(const std::vector<std::string>& v) {
  json::Array arr;
  for (const auto& s : v) arr.emplace_back(s);
  return arr;
}

json::Array to_json_array(const std::vector<int>& v) {
  json::Array arr;
  for (int s : v) arr.emplace_back(s);
  return arr;
}

}  // namespace

const char* to_string(JobType type) {
  switch (type) {
    case JobType::Campaign:
      return "campaign";
    case JobType::MonteCarlo:
      return "mc";
    case JobType::Fuzz:
      return "fuzz";
    case JobType::Matrix:
      return "matrix";
  }
  return "?";
}

json::Value JobSpec::to_json_value() const {
  json::Object obj;
  obj.emplace_back("type", to_string(type));
  obj.emplace_back("jobs", jobs);
  obj.emplace_back("seed", seed);
  obj.emplace_back("checkpoint_every", checkpoint_every);
  if (type == JobType::Campaign || type == JobType::MonteCarlo) {
    obj.emplace_back("gadget", gadget.gadget);
    obj.emplace_back("reps", gadget.scenario.reps());
    obj.emplace_back("syndrome", gadget.syndrome);
    obj.emplace_back("correlated", gadget.scenario.noise == "correlated");
    obj.emplace_back("code", gadget.scenario.code);
    obj.emplace_back("noise", gadget.scenario.noise);
  }
  if (type == JobType::Campaign) {
    obj.emplace_back("mode", campaign.chaos ? "chaos" : "kfault");
    obj.emplace_back("k", static_cast<std::uint64_t>(campaign.k));
    obj.emplace_back("budget", campaign.budget);
    obj.emplace_back("chaos_p", campaign.chaos_p);
    obj.emplace_back("shrink", campaign.shrink);
    obj.emplace_back("tripwire", campaign.tripwire);
  } else if (type == JobType::MonteCarlo) {
    obj.emplace_back("p", mc.p);
    obj.emplace_back("trials", mc.trials);
    obj.emplace_back("block", mc.block);
    // Default engine is omitted: pre-engine specs round-trip (and
    // fingerprint) byte-identically.
    if (mc.engine != "trials") obj.emplace_back("engine", mc.engine);
  } else if (type == JobType::Matrix) {
    obj.emplace_back("mode", matrix.mc ? "mc" : "campaign");
    obj.emplace_back("gadgets", to_json_array(matrix.gadgets));
    obj.emplace_back("codes", to_json_array(matrix.codes));
    obj.emplace_back("ks", to_json_array(matrix.ks));
    obj.emplace_back("noises", to_json_array(matrix.noises));
    obj.emplace_back("fault_k", static_cast<std::uint64_t>(matrix.fault_k));
    obj.emplace_back("budget", matrix.budget);
    obj.emplace_back("shrink", matrix.shrink);
    obj.emplace_back("p", matrix.p);
    obj.emplace_back("trials", matrix.trials);
    if (matrix.engine != "trials") obj.emplace_back("engine", matrix.engine);
  } else {
    obj.emplace_back("gateset", testing::to_string(fuzz.gate_set));
    obj.emplace_back("qubits", static_cast<std::uint64_t>(fuzz.qubits));
    obj.emplace_back("depth", static_cast<std::uint64_t>(fuzz.depth));
    obj.emplace_back("trials", fuzz.trials);
    obj.emplace_back("measure_prob", fuzz.measure_prob);
    obj.emplace_back("tol", fuzz.tol);
    obj.emplace_back("shrink", fuzz.shrink);
    obj.emplace_back("plant_bug", std::string(testing::to_string(fuzz.bug)));
  }
  return json::Value(std::move(obj));
}

JobSpec JobSpec::from_json(const json::Value& v) {
  EQC_EXPECTS(v.is_object());
  JobSpec spec;
  const std::string type = get_string(v, "type", "");
  if (type == "campaign")
    spec.type = JobType::Campaign;
  else if (type == "mc")
    spec.type = JobType::MonteCarlo;
  else if (type == "fuzz")
    spec.type = JobType::Fuzz;
  else if (type == "matrix")
    spec.type = JobType::Matrix;
  else
    EQC_CHECK(false && "unknown job type");
  // A worker count from outside the program: bounded before any pool
  // could be sized by it (negative and non-integer values fail as_u64).
  const std::uint64_t jobs = get_u64(v, "jobs", 1);
  EQC_CHECK(jobs <= parallel::kMaxJobs);
  spec.jobs = static_cast<unsigned>(jobs);
  spec.seed = get_u64(v, "seed", 1);
  spec.checkpoint_every = get_u64(v, "checkpoint_every", 64);
  if (spec.type == JobType::Campaign || spec.type == JobType::MonteCarlo) {
    spec.gadget.gadget = get_string(v, "gadget", "ngate");
    EQC_CHECK(analysis::is_known_gadget(spec.gadget.gadget));
    spec.gadget.scenario.code = get_string(v, "code", "steane");
    EQC_CHECK(codes::find_code(spec.gadget.scenario.code) != nullptr);
    // "noise" is authoritative; the legacy "correlated" flag maps onto it
    // (old specs keep parsing, and specs round-trip byte-identically).
    spec.gadget.scenario.noise = get_string(
        v, "noise", get_bool(v, "correlated", false) ? "correlated" : "paper");
    EQC_CHECK(analysis::is_known_noise(spec.gadget.scenario.noise));
    const int reps = static_cast<int>(get_u64(v, "reps", 3));
    EQC_CHECK(reps >= 1 && reps % 2 == 1);
    spec.gadget.scenario.repetition_k = (reps - 1) / 2;
    spec.gadget.syndrome = get_bool(v, "syndrome", true);
    spec.gadget.seed = spec.seed;
  }
  if (spec.type == JobType::Campaign) {
    const std::string mode = get_string(v, "mode", "kfault");
    EQC_CHECK(mode == "kfault" || mode == "chaos");
    spec.campaign.chaos = mode == "chaos";
    spec.campaign.k = static_cast<std::size_t>(get_u64(v, "k", 2));
    spec.campaign.budget = get_u64(v, "budget", 4000);
    spec.campaign.chaos_p = get_double(v, "chaos_p", 0.0);
    spec.campaign.shrink = get_bool(v, "shrink", true);
    spec.campaign.tripwire = get_bool(v, "tripwire", false);
  } else if (spec.type == JobType::MonteCarlo) {
    spec.mc.p = get_double(v, "p", 1e-3);
    spec.mc.trials = get_u64(v, "trials", 1000);
    spec.mc.block = get_u64(v, "block", 256);
    spec.mc.engine = get_string(v, "engine", "trials");
    EQC_CHECK(spec.mc.engine == "trials" || spec.mc.engine == "frames");
  } else if (spec.type == JobType::Matrix) {
    const std::string mode = get_string(v, "mode", "campaign");
    EQC_CHECK(mode == "campaign" || mode == "mc");
    spec.matrix.mc = mode == "mc";
    spec.matrix.gadgets = get_string_array(v, "gadgets", spec.matrix.gadgets);
    spec.matrix.codes = get_string_array(v, "codes", spec.matrix.codes);
    spec.matrix.ks = get_int_array(v, "ks", spec.matrix.ks);
    spec.matrix.noises = get_string_array(v, "noises", spec.matrix.noises);
    spec.matrix.fault_k = static_cast<std::size_t>(get_u64(v, "fault_k", 2));
    spec.matrix.budget = get_u64(v, "budget", 2000);
    spec.matrix.shrink = get_bool(v, "shrink", false);
    spec.matrix.p = get_double(v, "p", 1e-3);
    spec.matrix.trials = get_u64(v, "trials", 2000);
    spec.matrix.engine = get_string(v, "engine", "trials");
    EQC_CHECK(spec.matrix.engine == "trials" ||
              spec.matrix.engine == "frames");
  } else {
    spec.fuzz.gate_set =
        testing::gate_set_from_string(get_string(v, "gateset", "clifford"));
    spec.fuzz.qubits = static_cast<std::size_t>(get_u64(v, "qubits", 5));
    spec.fuzz.depth = static_cast<std::size_t>(get_u64(v, "depth", 40));
    spec.fuzz.trials = get_u64(v, "trials", 200);
    spec.fuzz.measure_prob = get_double(v, "measure_prob", 0.15);
    spec.fuzz.tol = get_double(v, "tol", 1e-7);
    spec.fuzz.shrink = get_bool(v, "shrink", true);
    spec.fuzz.bug =
        testing::bug_from_string(get_string(v, "plant_bug", "none"));
  }
  return spec;
}

namespace {

// --- campaign jobs ----------------------------------------------------------

JobOutcome run_campaign_job(
    const JobSpec& spec, const JobPaths& paths,
    const std::atomic<bool>* stop,
    const std::function<void(const JobProgress&)>& on_progress) {
  analysis::BuiltGadget built = analysis::build_gadget_experiment(spec.gadget);

  analysis::CampaignConfig cfg;
  if (spec.campaign.chaos) {
    cfg.mode = analysis::CampaignMode::Chaos;
    cfg.budget = spec.campaign.budget;
    cfg.chaos_model = noise::NoiseModel::paper_model(spec.campaign.chaos_p);
  } else {
    cfg.mode = analysis::CampaignMode::KFault;
    cfg.k = spec.campaign.k;
    cfg.budget = spec.campaign.budget;
  }
  cfg.jobs = spec.jobs;
  cfg.shrink = spec.campaign.shrink;
  cfg.checkpoint_path = paths.checkpoint;
  cfg.checkpoint_every = spec.checkpoint_every;
  cfg.checkpoint_min_interval_sec = 2.0;
  cfg.resume = true;
  cfg.fresh_on_corrupt = true;
  cfg.stop = stop;
  if (on_progress) {
    cfg.on_progress = [&on_progress](const analysis::CampaignProgress& p) {
      JobProgress jp;
      jp.items_done = p.items_done;
      jp.total_items = p.total_items;
      jp.counter.trials = p.sets_tested;
      jp.counter.failures = p.malignant;
      on_progress(jp);
    };
  }
  if (spec.campaign.tripwire) {
    const codes::CodeBlock block = built.main_block;
    const codes::CssCode* code = built.code;
    cfg.tripwire.violated = [block, code](circuit::TabBackend& b) {
      return !code->block_in_codespace(b.tableau(), block);
    };
    const auto valid =
        analysis::calibrate_probe_sites(built.ex, cfg.tripwire.violated);
    if (built.probe_after.empty()) {
      cfg.tripwire.probe_after = valid;
    } else {
      std::set_intersection(built.probe_after.begin(),
                            built.probe_after.end(), valid.begin(),
                            valid.end(),
                            std::back_inserter(cfg.tripwire.probe_after));
    }
  }

  const auto report = analysis::run_campaign(built.ex, cfg);
  JobOutcome outcome;
  outcome.complete = report.complete;
  if (report.complete)
    write_file_atomically(paths.report, report.to_json());
  return outcome;
}

// --- Monte-Carlo jobs -------------------------------------------------------

/// The job spec plus the stream revision its trials were sampled under.
std::string mc_fingerprint(const JobSpec& spec) {
  json::Object fp;
  fp.emplace_back("spec", spec.to_json_value());
  fp.emplace_back("stream_revision", noise::kStreamRevision);
  return json::Value(std::move(fp)).dump();
}

json::Value mc_checkpoint_to_json(const std::string& fingerprint,
                                  const noise::McProgress& p) {
  json::Object obj;
  obj.emplace_back("kind", kMcCheckpointKind);
  obj.emplace_back("schema_version", kMcCheckpointSchemaVersion);
  obj.emplace_back("fingerprint", fingerprint);
  obj.emplace_back("next_index", p.next_index);
  obj.emplace_back("trials", p.counter.trials);
  obj.emplace_back("failures", p.counter.failures);
  obj.emplace_back("stopped_early", p.counter.stopped_early);
  return json::Value(std::move(obj));
}

/// Loads an MC checkpoint; false when there is nothing (valid) to resume
/// from.  A damaged file is quarantined (fresh start — determinism makes
/// that safe); a fingerprint mismatch is an operator error and throws.
bool load_mc_checkpoint(const std::string& path,
                        const std::string& fingerprint,
                        noise::McProgress& out) {
  std::string text;
  if (!read_file(path, text)) return false;
  try {
    const json::Value doc = parse_checkpoint_document(
        text, kMcCheckpointKind, kMcCheckpointSchemaVersion);
    EQC_CHECK(doc.at("fingerprint").as_string() == fingerprint);
    try {
      out.next_index = doc.at("next_index").as_u64();
      out.counter.trials = doc.at("trials").as_u64();
      out.counter.failures = doc.at("failures").as_u64();
      out.counter.stopped_early = doc.at("stopped_early").as_bool();
    } catch (const json::JsonError& e) {
      throw CheckpointCorrupt(std::string("mc checkpoint: ") + e.what());
    }
    if (out.counter.trials != out.next_index ||
        out.counter.failures > out.counter.trials)
      throw CheckpointCorrupt("mc checkpoint: inconsistent counters");
    return true;
  } catch (const CheckpointCorrupt&) {
    quarantine_corrupt_file(path);
    return false;
  }
}

JobOutcome run_mc_job(
    const JobSpec& spec, const JobPaths& paths,
    const std::atomic<bool>* stop,
    const std::function<void(const JobProgress&)>& on_progress) {
  const analysis::BuiltGadget built =
      analysis::build_gadget_experiment(spec.gadget);
  const std::string fingerprint = mc_fingerprint(spec);

  noise::McResumableOptions opt;
  opt.jobs = spec.jobs;
  opt.block = spec.mc.block;
  opt.stop = stop;
  noise::McProgress resume;
  if (!paths.checkpoint.empty() &&
      load_mc_checkpoint(paths.checkpoint, fingerprint, resume)) {
    opt.start_index = resume.next_index;
    opt.initial = resume.counter;
  }
  auto emit = [&](const noise::McProgress& p) {
    if (!paths.checkpoint.empty())
      write_file_atomically(paths.checkpoint,
                            mc_checkpoint_to_json(fingerprint, p).dump());
    if (on_progress) {
      JobProgress jp;
      jp.items_done = p.next_index;
      jp.total_items = spec.mc.trials;
      jp.counter = p.counter;
      on_progress(jp);
    }
  };
  opt.on_block = emit;

  const noise::McRunResult result = analysis::run_gadget_mc(
      spec.gadget.gadget, built,
      analysis::scenario_noise_model(spec.gadget.scenario, spec.mc.p),
      spec.mc.trials, spec.seed, spec.mc.engine, opt);

  // Final flush: a cancelled run persists its exact stopping point even
  // when the stop landed mid-block.
  noise::McProgress final_p;
  final_p.next_index = result.next_index;
  final_p.counter = result.counter;
  emit(final_p);

  JobOutcome outcome;
  outcome.complete = result.complete;
  if (result.complete) {
    json::Object obj;
    obj.emplace_back("kind", "eqc_mc_report");
    obj.emplace_back("gadget", spec.gadget.gadget);
    obj.emplace_back("reps", spec.gadget.scenario.reps());
    obj.emplace_back("syndrome", spec.gadget.syndrome);
    obj.emplace_back("correlated", spec.gadget.scenario.noise == "correlated");
    obj.emplace_back("code", spec.gadget.scenario.code);
    obj.emplace_back("noise", spec.gadget.scenario.noise);
    obj.emplace_back("p", spec.mc.p);
    obj.emplace_back("trials", spec.mc.trials);
    obj.emplace_back("seed", spec.seed);
    if (spec.mc.engine != "trials")
      obj.emplace_back("engine", spec.mc.engine);
    obj.emplace_back("counter", result.counter.to_json_value());
    write_file_atomically(paths.report, json::Value(std::move(obj)).dump());
  }
  return outcome;
}

// --- matrix jobs ------------------------------------------------------------

JobOutcome run_matrix_job(
    const JobSpec& spec, const JobPaths& paths,
    const std::atomic<bool>* stop,
    const std::function<void(const JobProgress&)>& on_progress) {
  analysis::MatrixConfig cfg;
  cfg.mode = spec.matrix.mc ? analysis::MatrixMode::MonteCarlo
                            : analysis::MatrixMode::Campaign;
  cfg.gadgets = spec.matrix.gadgets;
  cfg.codes = spec.matrix.codes;
  cfg.ks = spec.matrix.ks;
  cfg.noises = spec.matrix.noises;
  cfg.fault_k = spec.matrix.fault_k;
  cfg.budget = spec.matrix.budget;
  cfg.shrink = spec.matrix.shrink;
  cfg.mc_p = spec.matrix.p;
  cfg.mc_trials = spec.matrix.trials;
  cfg.engine = spec.matrix.engine;
  cfg.jobs = spec.jobs;
  cfg.seed = spec.seed;
  // Per-cell checkpoints land as flat siblings of the job checkpoint path
  // (the scheduler's state dir already exists; no directory creation).
  if (!paths.checkpoint.empty()) cfg.checkpoint_prefix = paths.checkpoint + ".";
  cfg.checkpoint_every = spec.checkpoint_every;
  cfg.stop = stop;
  if (on_progress) {
    cfg.on_progress = [&on_progress](const analysis::MatrixProgress& p) {
      JobProgress jp;
      jp.items_done = p.cells_done;
      jp.total_items = p.total_cells;
      on_progress(jp);
    };
  }

  const auto report = analysis::run_matrix(cfg);
  JobOutcome outcome;
  outcome.complete = report.complete;
  if (report.complete)
    write_file_atomically(paths.report, report.to_json());
  return outcome;
}

// --- fuzz jobs --------------------------------------------------------------

JobOutcome run_fuzz_job(
    const JobSpec& spec, const JobPaths& paths,
    const std::atomic<bool>* stop,
    const std::function<void(const JobProgress&)>& on_progress) {
  testing::FuzzConfig cfg;
  cfg.gate_set = spec.fuzz.gate_set;
  cfg.qubits = spec.fuzz.qubits;
  cfg.depth = spec.fuzz.depth;
  cfg.seed = spec.seed;
  cfg.trials = spec.fuzz.trials;
  cfg.jobs = spec.jobs;
  cfg.measure_prob = spec.fuzz.measure_prob;
  cfg.tol = spec.fuzz.tol;
  cfg.shrink = spec.fuzz.shrink;
  cfg.bug = spec.fuzz.bug;
  cfg.stop = stop;
  cfg.checkpoint_path = paths.checkpoint;
  cfg.checkpoint_every = spec.checkpoint_every;
  cfg.resume = true;
  cfg.fresh_on_corrupt = true;
  if (on_progress) {
    const std::uint64_t total = spec.fuzz.trials;
    cfg.on_progress = [&on_progress, total](std::uint64_t merged,
                                            std::size_t failures) {
      JobProgress jp;
      jp.items_done = merged;
      jp.total_items = total;
      jp.counter.trials = merged;
      jp.counter.failures = failures;
      on_progress(jp);
    };
  }

  const auto report = testing::run_fuzz(cfg);
  JobOutcome outcome;
  outcome.complete = !report.interrupted && !report.time_limited;
  if (outcome.complete)
    write_file_atomically(paths.report, report.to_json());
  return outcome;
}

}  // namespace

JobOutcome run_job(const JobSpec& spec, const JobPaths& paths,
                   const std::atomic<bool>* stop,
                   const std::function<void(const JobProgress&)>& on_progress) {
  EQC_EXPECTS(!paths.report.empty());
  switch (spec.type) {
    case JobType::Campaign:
      return run_campaign_job(spec, paths, stop, on_progress);
    case JobType::MonteCarlo:
      return run_mc_job(spec, paths, stop, on_progress);
    case JobType::Fuzz:
      return run_fuzz_job(spec, paths, stop, on_progress);
    case JobType::Matrix:
      return run_matrix_job(spec, paths, stop, on_progress);
  }
  EQC_CHECK(false);
  return {};
}

}  // namespace eqc::serve
