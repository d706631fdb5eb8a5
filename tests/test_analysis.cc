// Tests for fault counting (single faults and pairs through the campaign
// engine, planted-fault execution) and the support-propagation analyzer.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "analysis/campaign.h"
#include "analysis/fault_enum.h"
#include "analysis/support_prop.h"
#include "codes/css_code.h"
#include "common/assert.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"

namespace eqc::analysis {
namespace {

using circuit::Circuit;

// Builds the Fig. 1 N-gate fault experiment: encode |one ? 1 : 0>_L
// noiselessly, run the N gate under injection, fail if the majority-decoded
// classical value is wrong or the quantum ancilla is not correctable.
FaultExperiment make_ngate_experiment(bool one, int repetitions,
                                      bool syndrome_check) {
  ftqc::Layout layout;
  const codes::CodeBlock source = layout.block(codes::steane_code());
  auto anc =
      ftqc::allocate_ngate_ancillas(layout, codes::steane_code(), repetitions);
  const auto out = layout.reg(7);

  FaultExperiment ex;
  ex.num_qubits = layout.total();
  ex.prep = Circuit(layout.total());
  codes::steane_code().append_encode_zero(ex.prep, source);
  if (one) codes::steane_code().append_logical_x(ex.prep, source);
  ex.gadget = Circuit(layout.total());
  ftqc::NGateOptions opt;
  opt.repetitions = repetitions;
  opt.syndrome_check = syndrome_check;
  ftqc::append_ngate(ex.gadget, codes::steane_code(), source, out, anc, opt);

  ex.failed = [out, source, one](circuit::TabBackend& backend,
                                 const circuit::ExecResult&) {
    int ones = 0;
    for (auto q : out)
      ones += backend.tableau().deterministic_z_value(q) ? 1 : 0;
    const bool decoded = 2 * ones > static_cast<int>(out.size());
    if (decoded != one) return true;
    Rng rng(3);
    codes::steane_code().perfect_correct(backend.tableau(), source, rng);
    return codes::steane_code().logical_z_expectation(backend.tableau(),
                                                      source) !=
           (one ? -1.0 : 1.0);
  };
  return ex;
}

// Counts the size-k fault sets of `ex` through the campaign engine
// (budget 0 = exhaustive), recording malignant sets unshrunk.
CampaignReport count_fault_sets(const FaultExperiment& ex, std::size_t k,
                                std::uint64_t budget) {
  CampaignConfig cfg;
  cfg.k = k;
  cfg.budget = budget;
  cfg.jobs = 2;
  cfg.shrink = false;
  return run_campaign(ex, cfg);
}

// Every tested set of `ex` shows up in the report: with an oracle that
// always fails, the malignant sets ARE the tested sets.
FaultExperiment always_failing(FaultExperiment ex) {
  ex.failed = [](circuit::TabBackend&, const circuit::ExecResult&) {
    return true;
  };
  return ex;
}

TEST(FaultEnum, NGateIsSingleFaultTolerantInThePaperModel) {
  const auto ex = make_ngate_experiment(true, 3, true);
  const auto report = count_fault_sets(ex, 1, 0);
  EXPECT_TRUE(report.exhaustive);
  EXPECT_GT(report.sets_tested, 400u);
  EXPECT_EQ(report.malignant, 0u) << "first failing ordinal: "
                                  << (report.malignant_sets.empty()
                                          ? 0
                                          : report.malignant_sets[0]
                                                .faults[0]
                                                .ordinal);
}

TEST(FaultEnum, SingleRepetitionIsNotFaultTolerant) {
  // Ablation: with one repetition (no majority), single faults break the
  // classical copy.
  const auto ex = make_ngate_experiment(true, 1, true);
  const auto report = count_fault_sets(ex, 1, 0);
  EXPECT_GT(report.malignant, 0u);
}

TEST(FaultEnum, CorrelatedGateFaultsExposeTheMajorityFanOut) {
  // Under the stronger correlated-fault model, a single CCX fault can flip
  // two of the three repetition copies at once and defeat the majority —
  // a model subtlety the paper's per-location counting does not cover.
  auto ex = make_ngate_experiment(true, 3, true);
  ex.model = FaultModel::FullDepolarizing;
  const auto report = count_fault_sets(ex, 1, 0);
  EXPECT_GT(report.malignant, 0u);
}

TEST(FaultEnum, SampledScanCoversTheUniverseWhenSmall) {
  // A budget at least the universe size is the exhaustive scan.
  const auto ex = make_ngate_experiment(true, 1, true);
  const auto full = count_fault_sets(ex, 1, 0);
  const auto budgeted = count_fault_sets(ex, 1, 1u << 30);
  EXPECT_EQ(full.sets_tested, enumerate_single_faults(ex).size());
  EXPECT_TRUE(budgeted.exhaustive);
  EXPECT_EQ(budgeted.sets_tested, full.sets_tested);
  EXPECT_EQ(budgeted.malignant, full.malignant);
  EXPECT_GT(budgeted.malignant, 0u);
}

TEST(FaultEnum, SampledScanRespectsBudget) {
  const auto ex = make_ngate_experiment(true, 3, true);
  const auto sampled = count_fault_sets(ex, 1, 100);
  EXPECT_FALSE(sampled.exhaustive);
  EXPECT_EQ(sampled.sets_tested, 100u);
  EXPECT_EQ(sampled.malignant, 0u);

  // The 100 sampled faults are distinct (drawn without replacement).
  const auto all = count_fault_sets(always_failing(ex), 1, 100);
  ASSERT_EQ(all.malignant_sets.size(), 100u);
  std::set<std::pair<std::size_t, std::string>> seen;
  for (const auto& m : all.malignant_sets) {
    ASSERT_EQ(m.faults.size(), 1u);
    seen.emplace(m.faults[0].ordinal, m.faults[0].error.to_string());
  }
  EXPECT_EQ(seen.size(), 100u);
}

TEST(FaultEnum, PairEnumerationFindsMalignantPairs) {
  auto ex = make_ngate_experiment(false, 3, true);
  const auto report = count_fault_sets(ex, 2, /*budget=*/4000);
  EXPECT_EQ(report.sets_tested, 4000u);
  EXPECT_GT(report.malignant, 0u);  // two faults can defeat distance 3
  EXPECT_GT(report.p_k_coefficient(), 0.0);
  EXPECT_LT(report.pseudo_threshold(), 1.0);
  EXPECT_GT(report.pseudo_threshold(), 0.0);
}

TEST(FaultEnum, PairSamplingDeduplicatesOnASmallUniverse) {
  // A universe small enough that a random-pair budget overshoots the number
  // of DISTINCT different-site pairs: the sampler must deduplicate and
  // never test more than the valid pairs.
  FaultExperiment ex;
  ex.num_qubits = 2;
  ex.prep = Circuit(2);
  ex.gadget = Circuit(2);
  ex.gadget.h(0).cnot(0, 1);
  ex = always_failing(std::move(ex));

  const auto faults = enumerate_single_faults(ex);
  const std::uint64_t n = faults.size();
  std::uint64_t same_site = 0;
  for (std::uint64_t i = 0; i < n;) {
    std::uint64_t j = i;
    while (j < n && faults[j].ordinal == faults[i].ordinal) ++j;
    same_site += (j - i) * (j - i - 1) / 2;
    i = j;
  }
  const std::uint64_t total = n * (n - 1) / 2;
  const std::uint64_t valid = total - same_site;
  ASSERT_GT(same_site, 0u);  // multi-fault sites exist, so total > valid

  // A budget strictly between `valid` and `total` forces the sampled branch
  // while still covering every distinct valid pair.
  const auto report =
      count_fault_sets(ex, 2, valid + (total - valid + 1) / 2);
  // Never more than the valid pairs, and the rejection loop finds them all.
  EXPECT_EQ(report.sets_tested, valid);
  std::set<std::string> seen;
  for (const auto& m : report.malignant_sets) {
    ASSERT_EQ(m.faults.size(), 2u);
    EXPECT_NE(m.faults[0].ordinal, m.faults[1].ordinal);
    seen.insert(std::to_string(m.faults[0].ordinal) +
                m.faults[0].error.to_string() + "|" +
                std::to_string(m.faults[1].ordinal) +
                m.faults[1].error.to_string());
  }
  EXPECT_EQ(seen.size(), report.sets_tested);
}

TEST(FaultEnum, RunWithFaultsRejectsAnUnvisitedPlant) {
  // A plant whose ordinal never occurs in the gadget would silently test
  // the WRONG (weaker) fault set; the executor must refuse instead.
  auto ex = make_ngate_experiment(false, 3, true);
  const auto sites = circuit::enumerate_fault_sites(ex.gadget);
  std::vector<Fault> faults = {
      Fault{sites.size() + 17,
            pauli::PauliString::single(ex.num_qubits, 0, pauli::Pauli::X)}};
  EXPECT_THROW((void)run_with_faults(ex, faults), ContractViolation);
}

TEST(FaultEnum, PairCoefficientMath) {
  // At k = 2: P_fail ~ C(L, 2) * malignant_fraction * p^2, p* = 1 / A.
  CampaignReport r;
  r.k = 2;
  r.num_sites = 100;
  r.sets_tested = 1000;
  r.malignant = 10;
  EXPECT_DOUBLE_EQ(r.malignant_fraction(), 0.01);
  EXPECT_DOUBLE_EQ(r.p_k_coefficient(), 0.5 * 100 * 99 * 0.01);
  EXPECT_DOUBLE_EQ(r.pseudo_threshold(), 1.0 / (0.5 * 100 * 99 * 0.01));
}

TEST(FaultEnum, RunWithFaultsAppliesExactlyThePlantedErrors) {
  // A planted logical X flips the copied value: the oracle sees it.
  auto ex = make_ngate_experiment(false, 3, true);
  // Find a gadget site on a source-block qubit (input to the gadget).
  const auto sites = circuit::enumerate_fault_sites(ex.gadget);
  // Build a weight-2 X error on source qubits 0 and 1 at one site...
  // (two X faults at different sites defeat the Hamming check).
  std::vector<Fault> faults;
  int planted = 0;
  for (const auto& site : sites) {
    if (planted == 2) break;
    if (site.qubits.size() == 1 && site.qubits[0] < 7 &&
        site.qubits[0] == static_cast<std::uint32_t>(planted)) {
      faults.push_back(Fault{
          site.ordinal, pauli::PauliString::single(ex.num_qubits,
                                                   site.qubits[0],
                                                   pauli::Pauli::X)});
      ++planted;
    }
  }
  if (planted == 2) {
    EXPECT_TRUE(run_with_faults(ex, faults));
  }
}

// --- Support propagation ---------------------------------------------------

TEST(SupportProp, CnotPropagatesForwardXBackwardZ) {
  Circuit c(2);
  c.h(0);  // site 0 on qubit 0
  c.cnot(0, 1);
  const std::vector<bool> classical(2, false);
  // X fault on qubit 0 after H: spreads to qubit 1 through the CNOT.
  auto st = propagate_supports(c, {SupportFault{0, true, false}}, classical);
  EXPECT_TRUE(st.x[0]);
  EXPECT_TRUE(st.x[1]);
  EXPECT_FALSE(st.z[0]);
  EXPECT_FALSE(st.z[1]);
  // Z fault stays on the control.
  st = propagate_supports(c, {SupportFault{0, false, true}}, classical);
  EXPECT_TRUE(st.z[0]);
  EXPECT_FALSE(st.z[1]);
  EXPECT_FALSE(st.x[1]);
}

TEST(SupportProp, ZTargetFlowsToControl) {
  Circuit c(2);
  c.cnot(0, 1);  // site 0
  c.idle(1);     // site 1: fault on the target after the CNOT
  c.cnot(0, 1);  // second CNOT propagates Z(target) -> control
  const std::vector<bool> classical(2, false);
  auto st = propagate_supports(c, {SupportFault{1, false, true}}, classical);
  EXPECT_TRUE(st.z[0]);
  EXPECT_TRUE(st.z[1]);
}

TEST(SupportProp, ClassicalQubitsScrubPhaseCorruption) {
  Circuit c(2);
  c.cnot(0, 1);
  c.idle(1);
  c.cnot(0, 1);
  std::vector<bool> classical(2, false);
  classical[1] = true;  // the target is a classical ancilla
  auto st = propagate_supports(c, {SupportFault{1, false, true}}, classical);
  EXPECT_FALSE(st.z[0]);  // phase error died on the classical bit
  EXPECT_FALSE(st.z[1]);
}

TEST(SupportProp, PrepClearsCorruption) {
  Circuit c(1);
  c.h(0);       // site 0
  c.prep_z(0);  // fresh qubit afterwards
  const std::vector<bool> classical(1, false);
  auto st = propagate_supports(c, {SupportFault{0, true, true}}, classical);
  EXPECT_FALSE(st.x[0]);
  EXPECT_FALSE(st.z[0]);
}

TEST(SupportProp, HSwapsComponents) {
  Circuit c(1);
  c.idle(0);  // site 0
  c.h(0);
  const std::vector<bool> classical(1, false);
  auto st = propagate_supports(c, {SupportFault{0, true, false}}, classical);
  EXPECT_FALSE(st.x[0]);
  EXPECT_TRUE(st.z[0]);
}

TEST(SupportProp, TransversalCnotKeepsBlocksWithinTolerance) {
  // Two 7-qubit blocks coupled transversally: any single fault corrupts at
  // most one qubit per block.
  Circuit c(14);
  const auto a = codes::CodeBlock::contiguous(0, 7);
  const auto b = codes::CodeBlock::contiguous(7, 7);
  codes::steane_code().append_logical_cnot(c, a, b);
  std::vector<BlockSpec> blocks = {
      {"a", {a.q.begin(), a.q.end()}, false, 1},
      {"b", {b.q.begin(), b.q.end()}, false, 1},
  };
  const auto report = analyze_supports(c, blocks,
                                       std::vector<bool>(14, false), 1u << 20);
  EXPECT_EQ(report.single_fault_violations, 0u);
  EXPECT_TRUE(report.exhaustive);
}

TEST(SupportProp, IntraBlockCouplingViolatesImmediately) {
  // A CNOT inside one block lets a single fault corrupt two block qubits:
  // the analyzer must flag it.
  Circuit c(7);
  c.cnot(0, 1);
  c.cnot(0, 2);
  const auto a = codes::CodeBlock::contiguous(0, 7);
  std::vector<BlockSpec> blocks = {{"a", {a.q.begin(), a.q.end()}, false, 1}};
  const auto report =
      analyze_supports(c, blocks, std::vector<bool>(7, false), 1u << 20);
  EXPECT_GT(report.single_fault_violations, 0u);
}

TEST(SupportProp, ClassicalBlockIgnoresZDamage) {
  // Z-only damage on a classical register never counts.
  Circuit c(3);
  c.h(0);  // site 0: a single-qubit site on qubit 0
  c.cz(0, 1);
  c.cz(0, 2);
  std::vector<bool> classical = {false, true, true};
  std::vector<BlockSpec> blocks = {{"cl", {1, 2}, true, 0}};
  // X fault on qubit 0 alone sends only Z onto qubits 1 and 2.
  auto st = propagate_supports(c, {SupportFault{0, true, false}}, classical);
  const auto damage = assess_blocks(st, blocks);
  EXPECT_EQ(damage[0].corrupted, 0);
  EXPECT_FALSE(damage[0].exceeded());
}

TEST(SupportProp, SiteFilterRestrictsUniverse) {
  Circuit c(2);
  c.h(0).h(1).cnot(0, 1);
  std::vector<BlockSpec> blocks = {{"all", {0, 1}, false, 2}};
  const auto all = analyze_supports(c, blocks, std::vector<bool>(2, false),
                                    1u << 20);
  const auto filtered = analyze_supports(
      c, blocks, std::vector<bool>(2, false), 1u << 20, 7,
      [](const circuit::FaultSite& s) { return s.moment == 0; });
  EXPECT_LT(filtered.num_sites, all.num_sites);
}

}  // namespace
}  // namespace eqc::analysis
