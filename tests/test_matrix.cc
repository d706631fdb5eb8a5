// Tests for the scenario-sweep matrix driver: grid construction, per-cell
// seed derivation, determinism under parallelism, stop-token handling,
// checkpoint/resume and the report JSON schema.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/matrix.h"
#include "common/assert.h"
#include "common/json.h"
#include "noise/model.h"

namespace eqc::analysis {
namespace {

// Removes the per-cell checkpoint files a config would write.
struct TempCheckpoints {
  std::string prefix;
  std::vector<std::string> names;
  TempCheckpoints(const std::string& stem, std::vector<std::string> cells)
      : prefix(::testing::TempDir() + stem), names(std::move(cells)) {
    cleanup();
  }
  ~TempCheckpoints() { cleanup(); }
  void cleanup() {
    for (const auto& name : names)
      std::remove((prefix + name + ".ckpt").c_str());
  }
};

MatrixConfig tiny_campaign() {
  MatrixConfig cfg;
  cfg.mode = MatrixMode::Campaign;
  cfg.gadgets = {"ngate"};
  cfg.codes = {"steane"};
  cfg.ks = {1};
  cfg.noises = {"paper"};
  cfg.fault_k = 2;
  cfg.budget = 60;
  cfg.seed = 5;
  return cfg;
}

TEST(MatrixSeed, IsDeterministicAndDistinctPerCell) {
  // Pinned: the derivation is part of the report contract (changing it
  // silently reshuffles every published cell).
  EXPECT_EQ(matrix_cell_seed(1, 0), 0x910a2dec89025cc1ULL);
  EXPECT_EQ(matrix_cell_seed(1, 1), 0xbeeb8da1658eec67ULL);
  EXPECT_EQ(matrix_cell_seed(42, 5), 0xde4431fa3c80db06ULL);
  EXPECT_NE(matrix_cell_seed(1, 0), matrix_cell_seed(2, 0));
}

TEST(Matrix, CellNamesFollowTheGridOrder) {
  MatrixConfig cfg = tiny_campaign();
  cfg.gadgets = {"ngate", "recovery"};
  cfg.codes = {"steane", "rm15"};
  cfg.ks = {1, 2};
  cfg.noises = {"paper", "correlated"};
  // Don't run 16 campaign cells — just check the naming scheme on a cell.
  MatrixCell cell;
  cell.gadget = "recovery";
  cell.scenario.code = "rm15";
  cell.scenario.repetition_k = 2;
  cell.scenario.noise = "correlated";
  EXPECT_EQ(cell.name(), "recovery_rm15_k2_correlated");
  EXPECT_EQ(cell.scenario.reps(), 5);
}

TEST(Matrix, SingleCellCampaignCompletes) {
  const auto report = run_matrix(tiny_campaign());
  ASSERT_EQ(report.cells.size(), 1u);
  EXPECT_TRUE(report.complete);
  const auto& cell = report.cells[0];
  EXPECT_TRUE(cell.complete);
  EXPECT_EQ(cell.name(), "ngate_steane_k1_paper");
  EXPECT_GT(cell.trials, 0u);
  EXPECT_GT(cell.num_sites, 0u);
  EXPECT_LE(cell.failures, cell.trials);
  EXPECT_GE(cell.interval.low, 0.0);
  EXPECT_LE(cell.interval.high, 1.0);
  EXPECT_LE(cell.interval.low, cell.interval.high);
}

TEST(Matrix, ReportIsIdenticalAcrossJobCounts) {
  MatrixConfig cfg = tiny_campaign();
  cfg.jobs = 1;
  const auto serial = run_matrix(cfg);
  cfg.jobs = 4;
  const auto parallel = run_matrix(cfg);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
}

TEST(Matrix, MonteCarloModeFillsTheSharedSchema) {
  MatrixConfig cfg = tiny_campaign();
  cfg.mode = MatrixMode::MonteCarlo;
  cfg.mc_p = 5e-3;
  cfg.mc_trials = 80;
  cfg.codes = {"steane", "rm15"};
  const auto report = run_matrix(cfg);
  ASSERT_EQ(report.cells.size(), 2u);
  EXPECT_TRUE(report.complete);
  for (const auto& cell : report.cells) {
    EXPECT_TRUE(cell.complete);
    EXPECT_EQ(cell.trials, 80u);
    EXPECT_LE(cell.interval.low, cell.interval.high);
    // Campaign-only extras stay zeroed in MC mode.
    EXPECT_EQ(cell.num_sites, 0u);
  }
  // MC reports are deterministic too.
  const auto again = run_matrix(cfg);
  EXPECT_EQ(report.to_json(), again.to_json());
  const auto est = json::Value::parse(report.to_json()).at("estimator");
  EXPECT_EQ(est.at("engine").as_string(), kMcEngine);
}

TEST(Matrix, StopTokenEndsTheSweepAfterTheCurrentCell) {
  MatrixConfig cfg = tiny_campaign();
  cfg.noises = {"paper", "biased-z"};  // two cells
  std::atomic<bool> stop{false};
  cfg.stop = &stop;
  cfg.on_progress = [&stop](const MatrixProgress&) { stop.store(true); };
  const auto report = run_matrix(cfg);
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.cells.size(), 1u);  // the second cell never started
}

TEST(Matrix, CheckpointedRerunReproducesTheReport) {
  TempCheckpoints ck("matrix_test_", {"ngate_steane_k1_paper"});
  MatrixConfig cfg = tiny_campaign();
  cfg.checkpoint_prefix = ck.prefix;
  cfg.checkpoint_every = 8;
  const auto first = run_matrix(cfg);
  EXPECT_TRUE(first.complete);
  // Second run resumes from the completed checkpoint and must emit the
  // exact same report (it re-reads the counters rather than recounting).
  const auto second = run_matrix(cfg);
  EXPECT_EQ(first.to_json(), second.to_json());
}

TEST(Matrix, ReportJsonSchema) {
  MatrixConfig cfg = tiny_campaign();
  const auto report = run_matrix(cfg);
  const auto v = json::Value::parse(report.to_json());
  const auto& obj = v.as_object();
  auto get = [&obj](const std::string& key) -> const json::Value& {
    for (const auto& [k, val] : obj)
      if (k == key) return val;
    ADD_FAILURE() << "missing key " << key;
    static const json::Value null;
    return null;
  };
  EXPECT_EQ(get("kind").as_string(), "eqc_matrix_report");
  EXPECT_EQ(get("mode").as_string(), "campaign");
  EXPECT_EQ(get("fault_k").as_u64(), 2u);
  EXPECT_EQ(get("seed").as_u64(), 5u);
  EXPECT_TRUE(get("complete").as_bool());
  EXPECT_EQ(v.find("stream_revision"), nullptr);
  EXPECT_EQ(get("estimator").dump(),
            estimator_json(kPlantedFramesEngine, noise::kStreamRevision)
                .dump());
  const auto& cells = get("cells").as_array();
  ASSERT_EQ(cells.size(), 1u);
  const auto& cell = cells[0].as_object();
  std::vector<std::string> keys;
  for (const auto& [k, val] : cell) keys.push_back(k);
  const std::vector<std::string> want = {
      "cell",       "gadget",        "code",
      "k",          "reps",          "noise",
      "complete",   "trials",        "failures",
      "failure_rate", "wilson_low",  "wilson_high",
      "num_sites",  "single_faults", "exhaustive",
      "p_k_coefficient", "pseudo_threshold"};
  EXPECT_EQ(keys, want);
}

TEST(Matrix, RejectsUnknownAxisValues) {
  {
    MatrixConfig cfg = tiny_campaign();
    cfg.codes = {"shor9"};
    EXPECT_THROW(run_matrix(cfg), ContractViolation);
  }
  {
    MatrixConfig cfg = tiny_campaign();
    cfg.noises = {"thermal"};
    EXPECT_THROW(run_matrix(cfg), ContractViolation);
  }
  {
    MatrixConfig cfg = tiny_campaign();
    cfg.gadgets = {"grover"};
    EXPECT_THROW(run_matrix(cfg), ContractViolation);
  }
  {
    MatrixConfig cfg = tiny_campaign();
    cfg.ks = {};
    EXPECT_THROW(run_matrix(cfg), ContractViolation);
  }
}

}  // namespace
}  // namespace eqc::analysis
