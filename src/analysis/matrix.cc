#include "analysis/matrix.h"

#include <utility>

#include "common/assert.h"
#include "noise/model.h"
#include "noise/monte_carlo.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eqc::analysis {

namespace {

const char* to_string(MatrixMode mode) {
  return mode == MatrixMode::Campaign ? "campaign" : "mc";
}

MatrixCell run_campaign_cell(const MatrixConfig& cfg, const BuiltGadget& built,
                             MatrixCell cell, std::uint64_t cell_seed) {
  CampaignConfig ccfg;
  ccfg.mode = CampaignMode::KFault;
  ccfg.k = cfg.fault_k;
  ccfg.budget = cfg.budget;
  ccfg.jobs = cfg.jobs;
  ccfg.sample_seed = cell_seed;
  ccfg.shrink = cfg.shrink;
  if (!cfg.checkpoint_prefix.empty()) {
    ccfg.checkpoint_path = cfg.checkpoint_prefix + cell.name() + ".ckpt";
    ccfg.checkpoint_every = cfg.checkpoint_every;
    ccfg.resume = true;
    ccfg.fresh_on_corrupt = true;
  }
  ccfg.stop = cfg.stop;

  const CampaignReport report = run_campaign(built.ex, ccfg);
  cell.complete = report.complete;
  cell.trials = report.sets_tested;
  cell.failures = report.malignant;
  cell.interval = report.malignant_interval();
  cell.num_sites = report.num_sites;
  cell.single_faults = report.single_faults;
  cell.exhaustive = report.exhaustive;
  cell.p_k_coefficient = report.p_k_coefficient();
  cell.pseudo_threshold = report.pseudo_threshold();
  return cell;
}

MatrixCell run_mc_cell(const MatrixConfig& cfg, const BuiltGadget& built,
                       MatrixCell cell, std::uint64_t cell_seed) {
  noise::McResumableOptions opt;
  opt.jobs = cfg.jobs;
  opt.stop = cfg.stop;
  const FailureCounter counter = run_gadget_mc(
      built, scenario_noise_model(cell.scenario, cfg.mc_p), cfg.mc_trials,
      cell_seed, opt);
  cell.complete = counter.trials == cfg.mc_trials;
  cell.trials = counter.trials;
  cell.failures = counter.failures;
  cell.interval = counter.interval();
  return cell;
}

}  // namespace

std::string MatrixCell::name() const {
  return gadget + "_" + scenario.code + "_k" +
         std::to_string(scenario.repetition_k) + "_" + scenario.noise;
}

json::Value MatrixReport::to_json_value() const {
  json::Object obj;
  obj.emplace_back("kind", "eqc_matrix_report");
  obj.emplace_back("mode", to_string(mode));
  obj.emplace_back("estimator",
                   estimator_json(mode == MatrixMode::Campaign
                                      ? kPlantedFramesEngine
                                      : kMcEngine,
                                  noise::kStreamRevision));
  if (mode == MatrixMode::Campaign) {
    obj.emplace_back("fault_k", static_cast<std::uint64_t>(fault_k));
    obj.emplace_back("budget", budget);
  } else {
    obj.emplace_back("p", mc_p);
    obj.emplace_back("trials_per_cell", budget);
  }
  obj.emplace_back("seed", seed);
  obj.emplace_back("complete", complete);
  json::Array arr;
  for (const auto& cell : cells) {
    json::Object c;
    c.emplace_back("cell", cell.name());
    c.emplace_back("gadget", cell.gadget);
    c.emplace_back("code", cell.scenario.code);
    c.emplace_back("k", static_cast<std::uint64_t>(cell.scenario.repetition_k));
    c.emplace_back("reps", static_cast<std::uint64_t>(cell.scenario.reps()));
    c.emplace_back("noise", cell.scenario.noise);
    c.emplace_back("complete", cell.complete);
    c.emplace_back("trials", cell.trials);
    c.emplace_back("failures", cell.failures);
    c.emplace_back("failure_rate", cell.trials == 0
                                       ? 0.0
                                       : static_cast<double>(cell.failures) /
                                             static_cast<double>(cell.trials));
    c.emplace_back("wilson_low", cell.interval.low);
    c.emplace_back("wilson_high", cell.interval.high);
    if (mode == MatrixMode::Campaign) {
      c.emplace_back("num_sites", static_cast<std::uint64_t>(cell.num_sites));
      c.emplace_back("single_faults",
                     static_cast<std::uint64_t>(cell.single_faults));
      c.emplace_back("exhaustive", cell.exhaustive);
      c.emplace_back("p_k_coefficient", cell.p_k_coefficient);
      c.emplace_back("pseudo_threshold", cell.pseudo_threshold);
    }
    arr.emplace_back(std::move(c));
  }
  obj.emplace_back("cells", std::move(arr));
  return json::Value(std::move(obj));
}

std::uint64_t matrix_cell_seed(std::uint64_t sweep_seed,
                               std::size_t cell_index) {
  // splitmix64 over (seed + golden-ratio stride * (index + 1)): distinct,
  // well-mixed streams per cell, stable under grid reordering only when the
  // axes are unchanged (the index is positional by design).
  std::uint64_t z =
      sweep_seed + 0x9E3779B97F4A7C15ULL * (static_cast<std::uint64_t>(cell_index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

MatrixReport run_matrix(const MatrixConfig& cfg) {
  EQC_EXPECTS(!cfg.gadgets.empty() && !cfg.codes.empty() && !cfg.ks.empty() &&
              !cfg.noises.empty());
  for (const auto& g : cfg.gadgets) EQC_EXPECTS(is_known_gadget(g));
  for (const auto& c : cfg.codes)
    EQC_EXPECTS(codes::find_code(c) != nullptr);
  for (const auto& n : cfg.noises) EQC_EXPECTS(is_known_noise(n));
  for (int k : cfg.ks) EQC_EXPECTS(k >= 0);

  MatrixReport report;
  report.mode = cfg.mode;
  report.fault_k = cfg.fault_k;
  report.budget = cfg.mode == MatrixMode::Campaign ? cfg.budget : cfg.mc_trials;
  report.mc_p = cfg.mc_p;
  report.seed = cfg.seed;
  report.complete = true;

  const std::size_t total = cfg.gadgets.size() * cfg.codes.size() *
                            cfg.ks.size() * cfg.noises.size();
  // Cell progress is driven from this serial loop, so the gauges are
  // deterministic (Det::Stable) despite being last-write-wins.
  static obs::Gauge& g_done = obs::gauge("matrix.cells_done");
  static obs::Gauge& g_total = obs::gauge("matrix.cells_total");
  static obs::Counter& c_cells = obs::counter("matrix.cells_completed");
  g_total.set(static_cast<std::int64_t>(total));
  g_done.set(0);
  std::size_t index = 0;
  for (const auto& gadget : cfg.gadgets) {
    for (const auto& code : cfg.codes) {
      for (int k : cfg.ks) {
        for (const auto& noise_name : cfg.noises) {
          MatrixCell cell;
          cell.gadget = gadget;
          cell.scenario.code = code;
          cell.scenario.repetition_k = k;
          cell.scenario.noise = noise_name;
          const std::uint64_t cell_seed = matrix_cell_seed(cfg.seed, index);
          ++index;

          if (cfg.on_progress) {
            MatrixProgress p;
            p.cells_done = report.cells.size();
            p.total_cells = total;
            p.current_cell = cell.name();
            cfg.on_progress(p);
          }

          GadgetSpec spec;
          spec.gadget = gadget;
          spec.scenario = cell.scenario;
          spec.seed = cell_seed;
          {
            obs::Span cell_span("matrix.cell", cell.name());
            const BuiltGadget built = build_gadget_experiment(spec);
            cell = cfg.mode == MatrixMode::Campaign
                       ? run_campaign_cell(cfg, built, std::move(cell),
                                           cell_seed)
                       : run_mc_cell(cfg, built, std::move(cell), cell_seed);
          }
          report.complete = report.complete && cell.complete;
          if (cell.complete) c_cells.add(1);
          report.cells.push_back(std::move(cell));
          g_done.set(static_cast<std::int64_t>(report.cells.size()));
          if (cfg.stop != nullptr &&
              cfg.stop->load(std::memory_order_relaxed)) {
            report.complete = false;
            if (cfg.on_progress) {
              MatrixProgress p;
              p.cells_done = report.cells.size();
              p.total_cells = total;
              cfg.on_progress(p);
            }
            return report;
          }
        }
      }
    }
  }
  if (cfg.on_progress) {
    MatrixProgress p;
    p.cells_done = report.cells.size();
    p.total_cells = total;
    cfg.on_progress(p);
  }
  return report;
}

}  // namespace eqc::analysis
