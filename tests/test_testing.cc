// Self-tests of the fuzzing harness (src/testing): generator determinism
// and budget discipline, circuit JSON round-trips, circuit inversion, the
// oracles on healthy backends, planted-bug end-to-end detection with
// shrinking and replay, --jobs byte-identity, and shrinker 1-minimality.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "circuit/op.h"
#include "common/assert.h"
#include "common/checkpoint.h"
#include "common/rng.h"
#include "noise/model.h"
#include "testing/circuit_edit.h"
#include "testing/circuit_gen.h"
#include "testing/circuit_json.h"
#include "testing/fuzz.h"
#include "testing/oracles.h"
#include "testing/shrink.h"

namespace eqc::testing {
namespace {

using circuit::Circuit;
using circuit::OpKind;

bool same_ops(const Circuit& a, const Circuit& b) {
  if (a.num_qubits() != b.num_qubits() || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a.ops()[i];
    const auto& y = b.ops()[i];
    if (x.kind != y.kind) return false;
    for (int k = 0; k < circuit::arity(x.kind); ++k)
      if (x.q[k] != y.q[k]) return false;
  }
  return true;
}

// --- generator ------------------------------------------------------------

TEST(CircuitGen, DeterministicPerSeed) {
  for (auto gs : {GateSet::Clifford, GateSet::CliffordCC, GateSet::CliffordT}) {
    CircuitGenOptions opt;
    opt.gate_set = gs;
    opt.measure_prob = 0.2;
    opt.prep_prob = 0.05;
    const CircuitGen gen(opt);
    Rng r1(42), r2(42), r3(43);
    const auto a = gen.generate(r1);
    const auto b = gen.generate(r2);
    const auto c = gen.generate(r3);
    EXPECT_TRUE(same_ops(a, b)) << to_string(gs);
    EXPECT_FALSE(same_ops(a, c)) << to_string(gs);
  }
}

TEST(CircuitGen, RespectsBudgets) {
  CircuitGenOptions opt;
  opt.qubits = 6;
  opt.depth = 55;
  const CircuitGen gen(opt);
  Rng rng(7);
  const auto c = gen.generate(rng);
  EXPECT_EQ(c.num_qubits(), 6u);
  EXPECT_EQ(c.size(), 55u);
  for (const auto& op : c.ops())
    for (int k = 0; k < circuit::arity(op.kind); ++k)
      EXPECT_LT(op.q[k], 6u);
}

TEST(CircuitGen, CliffordCircuitsAreUnitaryCliffordOnly) {
  const CircuitGen gen(CircuitGenOptions{});
  Rng rng(9);
  const auto c = gen.generate(rng);
  for (const auto& op : c.ops())
    EXPECT_TRUE(circuit::is_clifford_unitary(op.kind))
        << circuit::name(op.kind);
}

TEST(CircuitGen, CliffordCcKeepsClassicalAncillasClassical) {
  // Every CC circuit must execute on the tableau: the lowering relies on the
  // trailing ancilla register staying Z-deterministic.
  CircuitGenOptions opt;
  opt.gate_set = GateSet::CliffordCC;
  opt.qubits = 6;
  opt.depth = 80;
  const CircuitGen gen(opt);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    const auto c = gen.generate(rng);
    circuit::TabBackend tab(c.num_qubits(), Rng(seed));
    EXPECT_NO_THROW(circuit::execute(c, tab)) << "seed " << seed;
  }
}

TEST(CircuitGen, SharedHelperMatchesLegacyMenu) {
  Rng rng(5);
  const auto c = random_clifford_circuit(4, 30, rng);
  EXPECT_EQ(c.num_qubits(), 4u);
  EXPECT_EQ(c.size(), 30u);
  const std::set<OpKind> allowed{OpKind::H,    OpKind::S,  OpKind::Sdg,
                                 OpKind::X,    OpKind::Y,  OpKind::Z,
                                 OpKind::CNOT, OpKind::CZ, OpKind::Swap};
  for (const auto& op : c.ops()) EXPECT_TRUE(allowed.count(op.kind));
}

// --- circuit edits and JSON -----------------------------------------------

TEST(CircuitEdit, KeepOpsAndRelabel) {
  Circuit c(3);
  c.h(0);
  c.cnot(0, 1);
  c.s(2);
  const auto kept = keep_ops(c, {true, false, true});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept.ops()[0].kind, OpKind::H);
  EXPECT_EQ(kept.ops()[1].kind, OpKind::S);

  const auto relabeled = relabel_qubits(c, {2, 0, 1});
  EXPECT_EQ(relabeled.ops()[1].q[0], 2u);
  EXPECT_EQ(relabeled.ops()[1].q[1], 0u);
  EXPECT_EQ(relabeled.ops()[2].q[0], 1u);
}

TEST(CircuitEdit, CompactDropsUnusedQubits) {
  Circuit c(5);
  c.h(1);
  c.cnot(1, 4);
  const auto compact = compact_qubits(c);
  EXPECT_EQ(compact.num_qubits(), 2u);
  EXPECT_EQ(compact.ops()[0].q[0], 0u);
  EXPECT_EQ(compact.ops()[1].q[1], 1u);
}

TEST(CircuitJson, RoundTripsEveryRepresentableOp) {
  CircuitGenOptions opt;
  opt.gate_set = GateSet::CliffordT;
  opt.qubits = 5;
  opt.depth = 60;
  opt.measure_prob = 0.2;
  opt.prep_prob = 0.1;
  Rng rng(31);
  const auto c = CircuitGen(opt).generate(rng);
  const auto back = circuit_from_json(circuit_to_json(c));
  EXPECT_TRUE(same_ops(c, back));
  EXPECT_EQ(c.num_cbits(), back.num_cbits());
  // And byte-stable serialization.
  EXPECT_EQ(circuit_to_json(c).dump(), circuit_to_json(back).dump());
}

// --- inverse ---------------------------------------------------------------

TEST(CircuitInverse, RoundTripIsIdentityOnStateVector) {
  Rng rng(17);
  auto c = random_clifford_circuit(4, 50, rng);
  c.t(0);  // inverse() also covers non-Clifford unitaries
  c.cs(0, 1);
  auto round_trip = c;
  round_trip.append(circuit::inverse(c));
  circuit::SvBackend sv(4, Rng(1));
  circuit::execute(round_trip, sv);
  for (std::size_t q = 0; q < 4; ++q)
    EXPECT_NEAR(sv.expectation_z(q), 1.0, 1e-9);
}

TEST(CircuitInverse, RejectsNonUnitaryOps) {
  Circuit c(1);
  c.measure_z(0);
  EXPECT_THROW(circuit::inverse(c), ContractViolation);
  Circuit p(1);
  p.prep_z(0);
  EXPECT_THROW(circuit::inverse(p), ContractViolation);
}

// --- oracles on healthy backends -------------------------------------------

TEST(Oracles, AllPassOnHealthyBackends) {
  for (auto gs : {GateSet::Clifford, GateSet::CliffordCC, GateSet::CliffordT}) {
    CircuitGenOptions opt;
    opt.gate_set = gs;
    opt.qubits = 4;
    opt.depth = 30;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed);
      const auto c = CircuitGen(opt).generate(rng);
      for (const auto& name : unitary_oracles(gs)) {
        const auto r = run_named_oracle(name, c, seed * 7919, 1e-7);
        EXPECT_TRUE(r.ok) << to_string(gs) << "/" << name << " seed " << seed
                          << ": " << r.detail;
      }
    }
  }
}

TEST(Oracles, MeasuredOraclesPassOnHealthyBackends) {
  for (auto gs : {GateSet::Clifford, GateSet::CliffordCC}) {
    CircuitGenOptions opt;
    opt.gate_set = gs;
    opt.qubits = 4;
    opt.depth = 30;
    opt.measure_prob = 0.25;
    opt.prep_prob = 0.1;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed);
      const auto c = CircuitGen(opt).generate(rng);
      for (const auto& name : measured_oracles(gs)) {
        const auto r = run_named_oracle(name, c, seed * 104729, 1e-7);
        EXPECT_TRUE(r.ok) << to_string(gs) << "/" << name << " seed " << seed
                          << ": " << r.detail;
      }
    }
  }
}

TEST(Oracles, DifferentialCatchesSInvertedViaStabilizers) {
  // The canonical 2-op counterexample: per-qubit <Z> cannot distinguish S
  // from Sdg on |+> (complex conjugation preserves all Z expectations), but
  // the stabilizer cross-check can (Y vs -Y).
  Circuit c(1);
  c.h(0);
  c.s(0);
  EXPECT_TRUE(run_named_oracle("differential", c, 3, 1e-7).ok);
  const auto r =
      run_named_oracle("differential", c, 3, 1e-7, PlantedBug::SInverted);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("stabilizer"), std::string::npos) << r.detail;
}

// --- planted-bug end-to-end -------------------------------------------------

TEST(FuzzEndToEnd, FindsAndShrinksPlantedBug) {
  FuzzConfig cfg;
  cfg.trials = 10;
  cfg.qubits = 4;
  cfg.depth = 20;
  cfg.seed = 3;
  cfg.bug = PlantedBug::SInverted;
  const auto report = run_fuzz(cfg);
  ASSERT_FALSE(report.failures.empty());
  for (const auto& f : report.failures) {
    // Acceptance criterion: shrunk to a handful of ops.
    EXPECT_LE(f.circuit.size(), 5u) << f.oracle;
    EXPECT_LE(f.circuit.size(), f.original_ops);
    // Every artifact replays deterministically...
    EXPECT_TRUE(replay_failure(f)) << f.oracle;
    // ...including after a JSON round-trip (the --replay path).
    const auto round_trip = FailureArtifact::from_json(
        json::Value::parse(f.to_json_value().dump()));
    EXPECT_TRUE(replay_failure(round_trip)) << f.oracle;
    // The regression snippet mentions the oracle and the planted bug.
    const auto snippet = f.regression_snippet();
    EXPECT_NE(snippet.find(f.oracle), std::string::npos);
    EXPECT_NE(snippet.find("s-inverted"), std::string::npos);
  }
}

TEST(FuzzEndToEnd, HealthyBackendsProduceNoFailures) {
  for (auto gs : {GateSet::Clifford, GateSet::CliffordCC, GateSet::CliffordT,
                  GateSet::Frames}) {
    FuzzConfig cfg;
    cfg.gate_set = gs;
    cfg.trials = 5;
    cfg.qubits = 4;
    cfg.depth = 25;
    cfg.seed = 11;
    const auto report = run_fuzz(cfg);
    EXPECT_EQ(report.trials_run, cfg.trials);
    EXPECT_TRUE(report.failures.empty()) << to_string(gs);
  }
}

TEST(FuzzEndToEnd, ReportIsByteIdenticalAcrossJobs) {
  for (auto bug : {PlantedBug::None, PlantedBug::CnotReversed}) {
    FuzzConfig cfg;
    cfg.trials = 12;
    cfg.qubits = 4;
    cfg.depth = 20;
    cfg.seed = 5;
    cfg.bug = bug;
    cfg.jobs = 1;
    const auto serial = run_fuzz(cfg);
    cfg.jobs = 4;
    const auto sharded = run_fuzz(cfg);
    EXPECT_EQ(serial.to_json(), sharded.to_json());
  }
}

TEST(FuzzEndToEnd, AllPlantedBugsAreDetected) {
  const struct {
    PlantedBug bug;
    GateSet gs;
  } cases[] = {
      {PlantedBug::SInverted, GateSet::Clifford},
      {PlantedBug::CnotReversed, GateSet::Clifford},
      {PlantedBug::CzDropped, GateSet::Clifford},
      {PlantedBug::CczWrongPair, GateSet::CliffordCC},
      // The frame-vs-trial oracle must catch a defective frame engine
      // (fuzzing the frame fuzzer).
      {PlantedBug::FrameCnotSwapped, GateSet::Frames},
  };
  for (const auto& tc : cases) {
    FuzzConfig cfg;
    cfg.gate_set = tc.gs;
    cfg.trials = 10;
    cfg.qubits = 5;
    cfg.depth = 40;
    cfg.seed = 2;
    cfg.bug = tc.bug;
    cfg.shrink = false;  // detection only; keep the test fast
    const auto report = run_fuzz(cfg);
    EXPECT_FALSE(report.failures.empty()) << to_string(tc.bug);
  }
}

// --- shrinker ---------------------------------------------------------------

TEST(Shrink, ProducesOneMinimalFailingCircuit) {
  // Predicate: circuit contains at least 2 H gates and at least 1 CNOT.
  auto fails = [](const Circuit& c) {
    int h = 0, cx = 0;
    for (const auto& op : c.ops()) {
      h += op.kind == OpKind::H;
      cx += op.kind == OpKind::CNOT;
    }
    return h >= 2 && cx >= 1;
  };
  Rng rng(23);
  const auto big = random_clifford_circuit(5, 60, rng);
  if (!fails(big)) GTEST_SKIP() << "seed produced no qualifying circuit";
  const auto small = shrink_circuit(big, fails);
  EXPECT_TRUE(fails(small));
  EXPECT_EQ(small.size(), 3u);  // exactly 2 H + 1 CNOT is 1-minimal
  // 1-minimality: removing any single op breaks the predicate.
  for (std::size_t i = 0; i < small.size(); ++i) {
    std::vector<bool> keep(small.size(), true);
    keep[i] = false;
    EXPECT_FALSE(fails(keep_ops(small, keep))) << "op " << i;
  }
}

TEST(Shrink, PreservesFailureOnRealOracle) {
  // Shrinking a real planted-bug failure never loses the failure.
  CircuitGenOptions opt;
  opt.qubits = 4;
  opt.depth = 30;
  Rng rng(3);
  const auto c = CircuitGen(opt).generate(rng);
  auto fails = [](const Circuit& cand) {
    return !run_named_oracle("append-inverse-tab", cand, 1, 1e-7,
                             PlantedBug::SInverted)
                .ok;
  };
  if (!fails(c)) GTEST_SKIP() << "seed did not trigger the planted bug";
  const auto small = shrink_circuit(c, fails);
  EXPECT_TRUE(fails(small));
  EXPECT_LE(small.size(), 5u);
}

// --- checkpoint / resume ----------------------------------------------------

namespace {

// A scratch file that cleans up after itself.
struct TempFile {
  std::string path;
  explicit TempFile(const std::string& name) {
    path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
  }
  ~TempFile() {
    std::remove(path.c_str());
    std::remove((path + ".corrupt").c_str());
  }
};

FuzzConfig small_buggy_config() {
  FuzzConfig cfg;
  cfg.qubits = 4;
  cfg.depth = 20;
  cfg.trials = 120;
  cfg.seed = 7;
  cfg.jobs = 2;
  cfg.bug = PlantedBug::SInverted;  // guarantees failures in the report
  return cfg;
}

std::string slurp_file(const std::string& path) {
  std::string text;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

void spit_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

}  // namespace

TEST(FuzzResume, KillResumeReachesTheByteIdenticalReport) {
  FuzzConfig cfg = small_buggy_config();
  const auto reference = run_fuzz(cfg);  // uninterrupted, no checkpointing
  ASSERT_GT(reference.failures.size(), 0u);

  TempFile ck("fuzz_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_every = 16;
  cfg.max_trials_this_run = 50;  // simulated kill
  const auto killed = run_fuzz(cfg);
  EXPECT_TRUE(killed.interrupted);
  EXPECT_LT(killed.trials_run, cfg.trials);

  cfg.resume = true;
  cfg.max_trials_this_run = 37;  // a second, differently-placed kill
  const auto middle = run_fuzz(cfg);
  EXPECT_TRUE(middle.interrupted);

  cfg.max_trials_this_run = 0;  // run to completion
  cfg.jobs = 3;                 // a different worker count must not matter
  const auto resumed = run_fuzz(cfg);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.to_json(), reference.to_json());
}

TEST(FuzzResume, StopTokenInterruptsAndCheckpointResumes) {
  FuzzConfig cfg = small_buggy_config();
  const auto reference = run_fuzz(cfg);

  TempFile ck("fuzz_stop_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_every = 16;
  std::atomic<bool> stop{false};
  cfg.stop = &stop;
  cfg.on_progress = [&stop](std::uint64_t merged, std::size_t) {
    if (merged >= 32) stop.store(true);
  };
  const auto interrupted = run_fuzz(cfg);
  EXPECT_TRUE(interrupted.interrupted);
  EXPECT_LT(interrupted.trials_run, cfg.trials);
  EXPECT_FALSE(slurp_file(ck.path).empty());  // final checkpoint flushed

  cfg.stop = nullptr;
  cfg.on_progress = nullptr;
  cfg.resume = true;
  const auto resumed = run_fuzz(cfg);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.to_json(), reference.to_json());
}

TEST(FuzzResume, PreSetStopRunsNoTrials) {
  FuzzConfig cfg = small_buggy_config();
  std::atomic<bool> stop{true};
  cfg.stop = &stop;
  const auto report = run_fuzz(cfg);
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.trials_run, 0u);
}

TEST(FuzzResume, ResumeRejectsAMismatchedCheckpoint) {
  FuzzConfig cfg = small_buggy_config();
  TempFile ck("fuzz_mismatch_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.max_trials_this_run = 40;
  (void)run_fuzz(cfg);

  cfg.resume = true;
  cfg.seed = 99;  // different campaign -> different fingerprint
  EXPECT_THROW((void)run_fuzz(cfg), ContractViolation);
}

TEST(FuzzResume, RevisionOneCheckpointIsRefusedAsForeign) {
  FuzzConfig cfg = small_buggy_config();
  TempFile ck("fuzz_rev1_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.max_trials_this_run = 40;
  (void)run_fuzz(cfg);

  // Stream revision 1 wrote no stream_revision into the fingerprint.
  std::string text = slurp_file(ck.path);
  const std::string field = ",\"stream_revision\":" +
                            std::to_string(noise::kStreamRevision);
  const std::size_t at = text.find(field);
  ASSERT_NE(at, std::string::npos);
  text.erase(at, field.size());
  spit_file(ck.path, text);

  cfg.resume = true;
  cfg.max_trials_this_run = 0;
  EXPECT_THROW((void)run_fuzz(cfg), ContractViolation);
  EXPECT_EQ(slurp_file(ck.path), text);
}

TEST(FuzzResume, CorruptCheckpointThrowsTheDistinctError) {
  FuzzConfig cfg = small_buggy_config();
  TempFile ck("fuzz_corrupt_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.checkpoint_every = 16;
  cfg.max_trials_this_run = 40;
  (void)run_fuzz(cfg);

  const std::string original = slurp_file(ck.path);
  const std::size_t first_end = original.find('\n');
  ASSERT_NE(first_end, std::string::npos);
  ASSERT_LT(first_end + 1, original.size());
  cfg.resume = true;
  cfg.max_trials_this_run = 0;

  // Interior damage — beyond the crash model, which only ever tears the
  // last record — is always the distinct CheckpointCorrupt: a broken
  // first record, two records glued together, a record out of sequence.
  std::string broken = original;
  broken[first_end - 1] = 'x';
  std::string glued = original;
  glued.erase(first_end, 1);
  std::string reordered = original;
  reordered.replace(reordered.find("{\"seq\":1"), 8, "{\"seq\":7");
  for (const std::string& damaged : {broken, glued, reordered}) {
    spit_file(ck.path, damaged);
    EXPECT_THROW((void)run_fuzz(cfg), CheckpointCorrupt);
    EXPECT_EQ(slurp_file(ck.path), damaged);
  }

  // fresh_on_corrupt: quarantine + fresh start reaches the reference
  // report anyway (determinism makes the fallback safe).
  FuzzConfig clean = small_buggy_config();
  const auto reference = run_fuzz(clean);
  spit_file(ck.path, broken);
  cfg.fresh_on_corrupt = true;
  const auto recovered = run_fuzz(cfg);
  EXPECT_FALSE(recovered.interrupted);
  EXPECT_EQ(recovered.to_json(), reference.to_json());
  EXPECT_EQ(slurp_file(ck.path + ".corrupt"), broken);
  std::remove((ck.path + ".corrupt").c_str());
}

TEST(FuzzResume, SchemaOneDocumentCheckpointIsRefusedAsCorrupt) {
  FuzzConfig cfg = small_buggy_config();
  TempFile ck("fuzz_schema1_ck.json");
  cfg.checkpoint_path = ck.path;
  cfg.max_trials_this_run = 40;
  (void)run_fuzz(cfg);

  // The same progress as schema 1 stored it: one whole JSON document with
  // no trailing newline, which must not pass for a torn tail.
  const std::string log = slurp_file(ck.path);
  const json::Value header = json::Value::parse(log.substr(0, log.find('\n')));
  json::Object doc;
  doc.emplace_back("kind", header.at("kind"));
  doc.emplace_back("schema_version", 1);
  doc.emplace_back("fingerprint", header.at("fingerprint"));
  doc.emplace_back("next_trial", 40);
  doc.emplace_back("trials_run", 40);
  doc.emplace_back("oracle_runs", 0);
  doc.emplace_back("failures", json::Array{});
  const std::string schema1 = json::Value(std::move(doc)).dump();
  spit_file(ck.path, schema1);

  cfg.resume = true;
  cfg.max_trials_this_run = 0;
  EXPECT_THROW((void)run_fuzz(cfg), CheckpointCorrupt);
  EXPECT_EQ(slurp_file(ck.path), schema1);

  const auto reference = run_fuzz(small_buggy_config());
  cfg.fresh_on_corrupt = true;
  const auto recovered = run_fuzz(cfg);
  EXPECT_EQ(recovered.to_json(), reference.to_json());
  EXPECT_EQ(slurp_file(ck.path + ".corrupt"), schema1);
  std::remove((ck.path + ".corrupt").c_str());
}

TEST(FuzzResume, CheckpointingNeverChangesTheReport) {
  FuzzConfig cfg = small_buggy_config();
  const auto reference = run_fuzz(cfg);

  TempFile ck("fuzz_cadence_ck.json");
  cfg.checkpoint_path = ck.path;
  for (std::uint64_t every : {std::uint64_t{8}, std::uint64_t{64},
                              std::uint64_t{1000}}) {
    cfg.checkpoint_every = every;
    std::remove(ck.path.c_str());
    const auto report = run_fuzz(cfg);
    EXPECT_EQ(report.to_json(), reference.to_json())
        << "checkpoint_every " << every;
  }
}

}  // namespace
}  // namespace eqc::testing
