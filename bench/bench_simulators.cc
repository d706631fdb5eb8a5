// E9 — substrate performance: throughput of the two simulation engines and
// of the analysis primitives, measured with google-benchmark.  These are
// capacity-planning numbers for the experiments (E1-E8), not paper claims.
#include <benchmark/benchmark.h>

#include "analysis/experiments.h"
#include "analysis/frame_oracle.h"
#include "circuit/execute.h"
#include "circuit/tab_backend.h"
#include "codes/steane.h"
#include "common/rng.h"
#include "frame/driver.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "noise/model.h"
#include "qsim/gates.h"
#include "qsim/state_vector.h"
#include "stab/tableau.h"

using namespace eqc;

namespace {

void BM_StateVector1Q(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  qsim::StateVector sv(n);
  const auto h = qsim::gate_h();
  std::size_t q = 0;
  for (auto _ : state) {
    sv.apply1(q, h);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateVector1Q)->Arg(12)->Arg(16)->Arg(20)->Arg(22);

void BM_StateVectorCnot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  qsim::StateVector sv(n);
  std::size_t q = 0;
  for (auto _ : state) {
    sv.apply_cnot(q, (q + 1) % n);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateVectorCnot)->Arg(12)->Arg(16)->Arg(20)->Arg(22);

void BM_TableauCnot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stab::Tableau tab(n);
  std::size_t q = 0;
  for (auto _ : state) {
    tab.cnot(q, (q + 1) % n);
    q = (q + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableauCnot)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

void BM_TableauMeasure(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  for (auto _ : state) {
    state.PauseTiming();
    stab::Tableau tab(n);
    for (std::size_t q = 0; q < n; ++q) tab.h(q);
    state.ResumeTiming();
    for (std::size_t q = 0; q < n; ++q) tab.measure(q, rng);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TableauMeasure)->Arg(16)->Arg(64)->Arg(256);

// Reference-path set-up at the registers of the four named cells
// (ngate/steane 22, ngate/rm15 52, recovery/steane 78, recovery/rm15 204
// qubits): every per-trial replay constructs a TabBackend, and the generic
// frame oracle copies the reference tableau once per lane.
void BM_TableauCopy(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stab::Tableau tab(n);
  for (std::size_t q = 0; q < n; ++q) tab.h(q);
  for (std::size_t q = 0; q + 1 < n; ++q) tab.cnot(q, q + 1);
  for (auto _ : state) {
    stab::Tableau copy = tab;
    benchmark::DoNotOptimize(copy);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableauCopy)->Arg(22)->Arg(52)->Arg(78)->Arg(204);

void BM_TabBackendConstruct(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    circuit::TabBackend backend(n, Rng(1));
    benchmark::DoNotOptimize(backend);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TabBackendConstruct)->Arg(22)->Arg(52)->Arg(78)->Arg(204);

void BM_NGateTableauRun(benchmark::State& state) {
  ftqc::Layout layout;
  const auto source = layout.block(codes::steane_code());
  auto anc = ftqc::allocate_ngate_ancillas(layout, codes::steane_code(), 3);
  const auto out = layout.reg(7);
  circuit::Circuit prep(layout.total());
  codes::steane_code().append_encode_zero(prep, source);
  circuit::Circuit gadget(layout.total());
  ftqc::append_ngate(gadget, codes::steane_code(), source, out, anc);
  for (auto _ : state) {
    circuit::TabBackend backend(layout.total(), Rng(1));
    circuit::execute(prep, backend);
    circuit::execute(gadget, backend);
    benchmark::DoNotOptimize(backend.tableau().expectation_z(out[0]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NGateTableauRun);

// Monte-Carlo engine throughput, items = trials: the per-trial TabBackend
// execution vs the 64-lane batch frame engine on the same N-gate
// experiment.  The ratio of the two items/sec numbers is the frame
// speedup (the gated figure lives in bench_fig1_ngate's frames_mc phase).
void BM_NGateMcPerTrial(benchmark::State& state) {
  const auto built = analysis::build_gadget_experiment(analysis::GadgetSpec{});
  const auto model = noise::NoiseModel::paper_model(1e-3);
  std::uint64_t i = 0;
  for (auto _ : state) {
    Rng rng(derive_stream_seed(7, i++));
    benchmark::DoNotOptimize(analysis::run_noisy(built.ex, model, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NGateMcPerTrial);

void BM_NGateMcFrameBatch(benchmark::State& state) {
  const auto built = analysis::build_gadget_experiment(analysis::GadgetSpec{});
  const auto prog = analysis::make_frame_program(built.ex);
  const auto oracle =
      analysis::make_frame_oracle(built.spec.gadget, built, prog);
  const auto model = noise::NoiseModel::paper_model(1e-3);
  std::uint64_t base = 0;
  for (auto _ : state) {
    frame::FrameBatch batch(prog);
    batch.run_stochastic(model, 7, base, frame::FrameBatch::kLanes);
    benchmark::DoNotOptimize(oracle(batch));
    base += frame::FrameBatch::kLanes;
  }
  state.SetItemsProcessed(state.iterations() * frame::FrameBatch::kLanes);
}
BENCHMARK(BM_NGateMcFrameBatch);

void BM_MeasurePauliSteane(benchmark::State& state) {
  circuit::TabBackend backend(7, Rng(1));
  circuit::Circuit c(7);
  codes::Steane::append_encode_zero(c, codes::Block::contiguous(0));
  circuit::execute(c, backend);
  Rng rng(2);
  const auto zl =
      codes::Steane::logical_z_op(7, codes::Block::contiguous(0));
  for (auto _ : state) {
    auto copy = backend.tableau();
    benchmark::DoNotOptimize(copy.measure_pauli(zl, rng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MeasurePauliSteane);

}  // namespace

BENCHMARK_MAIN();
