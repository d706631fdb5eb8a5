#include "testing/fuzz.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sstream>

#include "common/assert.h"
#include "common/checkpoint.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "noise/model.h"
#include "testing/circuit_json.h"
#include "testing/shrink.h"

namespace eqc::testing {

using circuit::Circuit;

// --- artifacts --------------------------------------------------------------

json::Value FailureArtifact::to_json_value() const {
  json::Object obj;
  obj.emplace_back("kind", "eqc_fuzz_failure");
  obj.emplace_back("oracle", oracle);
  obj.emplace_back("gate_set", gate_set);
  obj.emplace_back("trial", trial);
  obj.emplace_back("oracle_seed", oracle_seed);
  obj.emplace_back("tol", tol);
  obj.emplace_back("bug", bug);
  obj.emplace_back("detail", detail);
  obj.emplace_back("original_ops", static_cast<std::uint64_t>(original_ops));
  obj.emplace_back("circuit", circuit_to_json(circuit));
  return json::Value(std::move(obj));
}

FailureArtifact FailureArtifact::from_json(const json::Value& v) {
  if (const auto* kind = v.find("kind");
      kind == nullptr || kind->as_string() != "eqc_fuzz_failure")
    throw ContractViolation(
        "FailureArtifact: document is not an eqc_fuzz_failure");
  FailureArtifact a;
  a.oracle = v.at("oracle").as_string();
  a.gate_set = v.at("gate_set").as_string();
  a.trial = v.at("trial").as_u64();
  a.oracle_seed = v.at("oracle_seed").as_u64();
  a.tol = v.at("tol").as_double();
  a.bug = v.at("bug").as_string();
  a.detail = v.at("detail").as_string();
  a.original_ops = v.at("original_ops").as_u64();
  a.circuit = circuit_from_json(v.at("circuit"));
  return a;
}

std::string FailureArtifact::regression_snippet() const {
  std::ostringstream os;
  os << "TEST(FuzzRegression, Trial" << trial << ") {\n";
  os << "  // " << oracle << " failure found by eqc_fuzz (gate set "
     << gate_set << ", bug " << bug << "):\n";
  os << "  //   " << detail << "\n";
  os << "  eqc::circuit::Circuit c(" << circuit.num_qubits() << ");\n";
  for (const auto& op : circuit.ops()) {
    os << "  c.";
    switch (op.kind) {
      case circuit::OpKind::PrepZ: os << "prep_z(" << op.q[0] << ")"; break;
      case circuit::OpKind::PrepX: os << "prep_x(" << op.q[0] << ")"; break;
      case circuit::OpKind::H: os << "h(" << op.q[0] << ")"; break;
      case circuit::OpKind::X: os << "x(" << op.q[0] << ")"; break;
      case circuit::OpKind::Y: os << "y(" << op.q[0] << ")"; break;
      case circuit::OpKind::Z: os << "z(" << op.q[0] << ")"; break;
      case circuit::OpKind::S: os << "s(" << op.q[0] << ")"; break;
      case circuit::OpKind::Sdg: os << "sdg(" << op.q[0] << ")"; break;
      case circuit::OpKind::T: os << "t(" << op.q[0] << ")"; break;
      case circuit::OpKind::Tdg: os << "tdg(" << op.q[0] << ")"; break;
      case circuit::OpKind::CNOT:
        os << "cnot(" << op.q[0] << ", " << op.q[1] << ")";
        break;
      case circuit::OpKind::CZ:
        os << "cz(" << op.q[0] << ", " << op.q[1] << ")";
        break;
      case circuit::OpKind::CS:
        os << "cs(" << op.q[0] << ", " << op.q[1] << ")";
        break;
      case circuit::OpKind::CSdg:
        os << "csdg(" << op.q[0] << ", " << op.q[1] << ")";
        break;
      case circuit::OpKind::Swap:
        os << "swap(" << op.q[0] << ", " << op.q[1] << ")";
        break;
      case circuit::OpKind::CCX:
        os << "ccx(" << op.q[0] << ", " << op.q[1] << ", " << op.q[2] << ")";
        break;
      case circuit::OpKind::CCZ:
        os << "ccz(" << op.q[0] << ", " << op.q[1] << ", " << op.q[2] << ")";
        break;
      case circuit::OpKind::MeasureZ: os << "measure_z(" << op.q[0] << ")"; break;
      case circuit::OpKind::Idle: os << "idle(" << op.q[0] << ")"; break;
      default: os << "/* unsupported op */"; break;
    }
    os << ";\n";
  }
  os << "  const auto r = eqc::testing::run_named_oracle(\"" << oracle
     << "\", c, " << oracle_seed << "ull, " << tol;
  if (bug != "none")
    os << ",\n      eqc::testing::bug_from_string(\"" << bug << "\")";
  os << ");\n";
  os << "  EXPECT_TRUE(r.ok) << r.detail;\n";
  os << "}\n";
  return os.str();
}

bool replay_failure(const FailureArtifact& artifact) {
  const auto r = run_named_oracle(artifact.oracle, artifact.circuit,
                                  artifact.oracle_seed, artifact.tol,
                                  bug_from_string(artifact.bug));
  return !r.ok;
}

// --- report -----------------------------------------------------------------

json::Value FuzzReport::to_json_value() const {
  json::Object obj;
  obj.emplace_back("kind", "eqc_fuzz_report");
  obj.emplace_back("gate_set", to_string(config.gate_set));
  obj.emplace_back("qubits", static_cast<std::uint64_t>(config.qubits));
  obj.emplace_back("depth", static_cast<std::uint64_t>(config.depth));
  obj.emplace_back("seed", config.seed);
  obj.emplace_back("trials", config.trials);
  obj.emplace_back("trials_run", trials_run);
  obj.emplace_back("time_limited", time_limited);
  obj.emplace_back("interrupted", interrupted);
  obj.emplace_back("measure_prob", config.measure_prob);
  obj.emplace_back("prep_prob", config.prep_prob);
  obj.emplace_back("tol", config.tol);
  obj.emplace_back("bug", std::string(to_string(config.bug)));
  obj.emplace_back("oracle_runs", oracle_runs);
  obj.emplace_back("failure_count", static_cast<std::uint64_t>(failures.size()));
  json::Array arr;
  for (const auto& f : failures) arr.push_back(f.to_json_value());
  obj.emplace_back("failures", std::move(arr));
  return json::Value(std::move(obj));
}

// --- oracle plans -----------------------------------------------------------

std::vector<std::string> unitary_oracles(GateSet gs) {
  switch (gs) {
    case GateSet::Clifford:
      return {"differential",        "append-inverse-sv",
              "append-inverse-tab",  "pauli-frame-sv",
              "pauli-frame-tab",     "schedule-reorder-sv",
              "schedule-reorder-tab", "relabel-sv",
              "relabel-tab"};
    case GateSet::CliffordCC:
      // pauli-frame needs Heisenberg conjugation, which is Clifford-only.
      return {"differential",         "append-inverse-sv",
              "append-inverse-tab",   "schedule-reorder-sv",
              "schedule-reorder-tab", "relabel-sv",
              "relabel-tab"};
    case GateSet::CliffordT:
      // sv-only self-checks: the tableau cannot execute T.
      return {"append-inverse-sv", "schedule-reorder-sv", "relabel-sv"};
    case GateSet::Frames:
      // The frame engine is the subject; differential anchors the per-trial
      // TabBackend it is compared against.
      return {"differential", "frame-vs-trial"};
  }
  return {};
}

std::vector<std::string> measured_oracles(GateSet gs) {
  switch (gs) {
    case GateSet::Clifford:
    case GateSet::CliffordCC:
      return {"differential", "relabel-sv", "relabel-tab"};
    case GateSet::CliffordT:
      return {"relabel-sv"};
    case GateSet::Frames:
      return {"differential", "frame-vs-trial"};
  }
  return {};
}

// --- driver -----------------------------------------------------------------

namespace {

struct TrialOutcome {
  std::uint64_t oracle_runs = 0;
  std::vector<FailureArtifact> failures;
};

CircuitGenOptions gen_options(const FuzzConfig& cfg, bool measured) {
  CircuitGenOptions opt;
  opt.gate_set = cfg.gate_set;
  opt.qubits = cfg.qubits;
  opt.depth = cfg.depth;
  if (measured) {
    opt.measure_prob = cfg.measure_prob;
    opt.prep_prob = cfg.prep_prob;
  }
  return opt;
}

void run_oracles(const FuzzConfig& cfg, std::uint64_t trial,
                 std::uint64_t trial_seed, const Circuit& c,
                 const std::vector<std::string>& oracles,
                 std::uint64_t seed_salt, TrialOutcome& out) {
  for (std::size_t k = 0; k < oracles.size(); ++k) {
    const std::string& name = oracles[k];
    const std::uint64_t oseed =
        derive_stream_seed(trial_seed, seed_salt + k);
    ++out.oracle_runs;
    const auto r = run_named_oracle(name, c, oseed, cfg.tol, cfg.bug);
    if (r.ok) continue;

    FailureArtifact a;
    a.oracle = name;
    a.gate_set = to_string(cfg.gate_set);
    a.trial = trial;
    a.oracle_seed = oseed;
    a.tol = cfg.tol;
    a.bug = to_string(cfg.bug);
    a.original_ops = c.size();
    a.circuit = c;
    a.detail = r.detail;
    if (cfg.shrink) {
      a.circuit = shrink_circuit(c, [&](const Circuit& cand) {
        return !run_named_oracle(name, cand, oseed, cfg.tol, cfg.bug).ok;
      });
      a.detail =
          run_named_oracle(name, a.circuit, oseed, cfg.tol, cfg.bug).detail;
    }
    out.failures.push_back(std::move(a));
  }
}

TrialOutcome run_trial(const FuzzConfig& cfg, std::uint64_t trial) {
  TrialOutcome out;
  const std::uint64_t trial_seed = derive_stream_seed(cfg.seed, trial);
  Rng rng(trial_seed);

  const Circuit c_unit = CircuitGen(gen_options(cfg, false)).generate(rng);
  run_oracles(cfg, trial, trial_seed, c_unit, unitary_oracles(cfg.gate_set),
              1000, out);

  if (cfg.measure_prob > 0.0) {
    const Circuit c_meas = CircuitGen(gen_options(cfg, true)).generate(rng);
    run_oracles(cfg, trial, trial_seed, c_meas,
                measured_oracles(cfg.gate_set), 2000, out);
  }
  return out;
}

constexpr char kFuzzCheckpointKind[] = "eqc-fuzz-checkpoint";
constexpr std::uint64_t kFuzzCheckpointSchemaVersion = 1;

/// Everything that identifies the trial stream: a checkpoint only resumes
/// a run whose per-trial outcomes are guaranteed identical.
json::Value fuzz_fingerprint(const FuzzConfig& cfg) {
  json::Object fp;
  fp.emplace_back("gate_set", to_string(cfg.gate_set));
  fp.emplace_back("qubits", static_cast<std::uint64_t>(cfg.qubits));
  fp.emplace_back("depth", static_cast<std::uint64_t>(cfg.depth));
  fp.emplace_back("seed", cfg.seed);
  fp.emplace_back("trials", cfg.trials);
  fp.emplace_back("measure_prob", cfg.measure_prob);
  fp.emplace_back("prep_prob", cfg.prep_prob);
  fp.emplace_back("tol", cfg.tol);
  fp.emplace_back("bug", std::string(to_string(cfg.bug)));
  fp.emplace_back("shrink", cfg.shrink);
  fp.emplace_back("max_failures", static_cast<std::uint64_t>(cfg.max_failures));
  fp.emplace_back("stream_revision", noise::kStreamRevision);
  return json::Value(std::move(fp));
}

std::string fuzz_checkpoint_to_json(const FuzzConfig& cfg,
                                    std::uint64_t next_trial,
                                    const FuzzReport& report) {
  json::Object doc;
  doc.emplace_back("kind", json::Value(kFuzzCheckpointKind));
  doc.emplace_back("schema_version", json::Value(kFuzzCheckpointSchemaVersion));
  doc.emplace_back("fingerprint", fuzz_fingerprint(cfg));
  doc.emplace_back("next_trial", json::Value(next_trial));
  doc.emplace_back("trials_run", json::Value(report.trials_run));
  doc.emplace_back("oracle_runs", json::Value(report.oracle_runs));
  json::Array arr;
  for (const auto& f : report.failures) arr.push_back(f.to_json_value());
  doc.emplace_back("failures", json::Value(std::move(arr)));
  return json::Value(std::move(doc)).dump();
}

/// Restores the merged trial prefix; returns the resume index.  Throws
/// CheckpointCorrupt on damage, ContractViolation on a foreign fingerprint.
std::uint64_t load_fuzz_checkpoint(const FuzzConfig& cfg,
                                   const std::string& text,
                                   FuzzReport& report) {
  const json::Value doc = parse_checkpoint_document(
      text, kFuzzCheckpointKind, kFuzzCheckpointSchemaVersion);
  std::string got;
  try {
    got = doc.at("fingerprint").dump();
  } catch (const json::JsonError& e) {
    throw CheckpointCorrupt(std::string("fuzz checkpoint: ") + e.what());
  }
  const std::string want = fuzz_fingerprint(cfg).dump();
  if (want != got)
    throw ContractViolation("fuzz checkpoint fingerprint mismatch:\n"
                            "  checkpoint " + got + "\n  config     " + want);
  try {
    const std::uint64_t next = doc.at("next_trial").as_u64();
    if (next > cfg.trials)
      throw CheckpointCorrupt("fuzz checkpoint: next_trial out of range");
    report.trials_run = doc.at("trials_run").as_u64();
    report.oracle_runs = doc.at("oracle_runs").as_u64();
    for (const auto& f : doc.at("failures").as_array())
      report.failures.push_back(FailureArtifact::from_json(f));
    return next;
  } catch (const json::JsonError& e) {
    throw CheckpointCorrupt(std::string("fuzz checkpoint: ") + e.what());
  } catch (const ContractViolation& e) {
    throw CheckpointCorrupt(std::string("fuzz checkpoint: ") + e.what());
  }
}

}  // namespace

FuzzReport run_fuzz(const FuzzConfig& cfg) {
  EQC_EXPECTS(cfg.trials > 0);
  EQC_EXPECTS(cfg.qubits >= 2);
  EQC_EXPECTS(cfg.depth > 0);

  FuzzReport report;
  report.config = cfg;

  // --- resume a checkpointed run. -------------------------------------------
  std::uint64_t next_trial = 0;
  if (cfg.resume && !cfg.checkpoint_path.empty()) {
    std::string text;
    if (read_file(cfg.checkpoint_path, text)) {
      try {
        next_trial = load_fuzz_checkpoint(cfg, text, report);
      } catch (const CheckpointCorrupt&) {
        if (!cfg.fresh_on_corrupt) throw;
        quarantine_corrupt_file(cfg.checkpoint_path);
        report = FuzzReport{};
        report.config = cfg;
        next_trial = 0;
      }
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  std::atomic<bool> out_of_time{false};
  auto expired = [&] {
    if (cfg.time_budget_sec <= 0) return false;
    if (out_of_time.load(std::memory_order_relaxed)) return true;
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    if (dt.count() < cfg.time_budget_sec) return false;
    out_of_time.store(true, std::memory_order_relaxed);
    return true;
  };
  auto stop_requested = [&] {
    return cfg.stop != nullptr && cfg.stop->load(std::memory_order_relaxed);
  };

  // Trials run on parallel::sweep and merge in index order as a contiguous
  // prefix; each trial's outcome is a pure function of (seed, index), so
  // neither the worker count nor the checkpoint cadence can change the
  // report.  A trial claimed after the time budget ran out is abandoned:
  // earlier trials still merge, nothing later does.
  auto write_checkpoint = [&] {
    if (!cfg.checkpoint_path.empty())
      write_file_atomically(cfg.checkpoint_path,
                            fuzz_checkpoint_to_json(cfg, next_trial, report));
  };
  const std::uint64_t first_trial = next_trial;
  const std::uint64_t every = std::max<std::uint64_t>(cfg.checkpoint_every, 1);
  parallel::SweepOptions sweep_opt;
  sweep_opt.jobs = cfg.jobs;
  sweep_opt.stop = cfg.stop;
  sweep_opt.progress = [&](std::uint64_t next) {
    next_trial = next;
    if ((next - first_trial) % every != 0) return;
    write_checkpoint();
    if (cfg.on_progress) cfg.on_progress(next_trial, report.failures.size());
  };
  const std::uint64_t end_trial =
      cfg.max_trials_this_run == 0
          ? cfg.trials
          : std::min<std::uint64_t>(cfg.trials,
                                    next_trial + cfg.max_trials_this_run);
  next_trial = parallel::sweep(
      next_trial, end_trial, sweep_opt,
      [&](unsigned, std::uint64_t trial) -> std::optional<TrialOutcome> {
        if (expired()) return std::nullopt;
        return run_trial(cfg, trial);
      },
      [&](std::uint64_t, TrialOutcome& o) {
        ++report.trials_run;
        report.oracle_runs += o.oracle_runs;
        for (auto& f : o.failures)
          if (report.failures.size() < cfg.max_failures)
            report.failures.push_back(std::move(f));
        return true;
      });
  if (next_trial < end_trial && !stop_requested())
    report.time_limited = true;
  if (next_trial < cfg.trials && !report.time_limited)
    report.interrupted = true;  // stop token or max_trials_this_run

  // A final flush so an interrupted run never loses merged progress.
  write_checkpoint();
  if (cfg.on_progress) cfg.on_progress(next_trial, report.failures.size());
  return report;
}

}  // namespace eqc::testing
