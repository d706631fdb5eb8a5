// E8 — the repetition-count claim (Sec. 4.2): "it is enough to repeat the
// circuit 2k+1 = 3 times, correct the outcome using a majority vote, and
// then copy the result into seven bits", and reducing the number of
// operations improves the fault-tolerance threshold.
//
// Sweeps the N gate over {1, 3} repetitions x {with, without} the Hamming
// syndrome check, reporting per configuration: fault locations, exhaustive
// single-fault failures, the pair-count p^2 coefficient, and the resulting
// pseudo-threshold.  Only (3, with) is fault tolerant; its threshold
// reflects the paper's trade-off between protection and location count.
#include <cstdio>

#include "analysis/experiments.h"
#include "bench_util.h"

using namespace eqc;

namespace {

/// The Steane |1>_L N-gate cell with `reps` = 2k+1 repetitions, parity
/// check on or off, scenario noise axis `noise`.
analysis::FaultExperiment ngate(int reps, bool syndrome,
                                const char* noise = "paper") {
  analysis::GadgetSpec spec;
  spec.scenario.repetition_k = (reps - 1) / 2;
  spec.scenario.noise = noise;
  spec.syndrome = syndrome;
  return analysis::build_gadget_experiment(spec).ex;
}

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("repetition_sweep", argc, argv);
  bench::banner("E8: N-gate repetition sweep (2k+1 = 3 suffices)");
  std::printf("\n %-5s %-9s %-7s %-8s %-14s %-13s %-12s\n", "reps",
              "syndrome", "gates", "sites", "1-fault fails", "A (p^2 coef)",
              "pseudo-thr");

  struct Row {
    int reps;
    bool syndrome;
    std::size_t failures;
    double threshold;
  };
  std::vector<Row> rows;

  for (int reps : {1, 3}) {
    for (bool syndrome : {false, true}) {
      const auto ex = ngate(reps, syndrome);
      const auto single = bench::count_fault_sets(ex, 1, 0, rep.jobs());
      const auto pairs =
          bench::count_fault_sets(ex, 2, bench::scaled(12000), rep.jobs(), 7);
      std::printf(" %-5d %-9s %-7zu %-8zu %-14llu %-13.1f %-12.2e\n", reps,
                  syndrome ? "yes" : "no", ex.gadget.size(),
                  single.num_sites,
                  static_cast<unsigned long long>(single.malignant),
                  pairs.p_k_coefficient(),
                  single.malignant == 0 ? pairs.pseudo_threshold() : 0.0);
      rows.push_back(
          Row{reps, syndrome, single.malignant,
              single.malignant == 0 ? pairs.pseudo_threshold() : 0.0});
      char key[64];
      std::snprintf(key, sizeof key, "reps%d_%s_single_failures", reps,
                    syndrome ? "synd" : "nosynd");
      rep.metric(key, json::Value(single.malignant));
      std::snprintf(key, sizeof key, "reps%d_%s_pseudo_threshold", reps,
                    syndrome ? "synd" : "nosynd");
      rep.metric(key, json::Value(rows.back().threshold));
    }
  }

  bench::section("correlated-fault model: 3 vs 5 repetitions");
  {
    // E1(b') showed that correlated CCX faults defeat the 3-repetition
    // majority fan-out.  With 5 repetitions and an independent counter per
    // output bit (k' = 2) the same exhaustive scan must come back clean.
    for (int reps : {3, 5}) {
      const auto report = bench::count_fault_sets(
          ngate(reps, true, "correlated"), 1, 0, rep.jobs());
      std::printf("  reps=%d correlated model: %llu faults, %llu failures\n",
                  reps, static_cast<unsigned long long>(report.sets_tested),
                  static_cast<unsigned long long>(report.malignant));
    }
  }

  int failures = 0;
  bool ft_config_ok = false, others_fail = true;
  for (const auto& row : rows) {
    if (row.reps == 3 && row.syndrome)
      ft_config_ok = row.failures == 0;
    else
      others_fail = others_fail && row.failures > 0;
  }
  std::printf("\n");
  failures += bench::verdict(
      ft_config_ok, "(3, syndrome) has zero single-fault failures — the "
                    "paper's 2k+1 = 3 prescription is fault tolerant");
  failures += bench::verdict(
      others_fail,
      "every cheaper configuration has single-fault failures — both the "
      "repetition and the syndrome check are necessary");
  return rep.finish(failures);
}
