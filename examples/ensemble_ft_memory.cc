// A fault-tolerant logical memory on an ENSEMBLE of encoded computers —
// the paper's two threads joined: every molecule carries a Steane-encoded
// qubit and runs measurement-free error recovery (Sec. 5); the logical
// value is read out only through the ensemble expectation signal.
#include <cstdio>

#include "codes/css_code.h"
#include "ensemble/machine.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "ftqc/recovery.h"
#include "noise/model.h"

using namespace eqc;

int main() {
  std::printf("== Ensemble of encoded computers with measurement-free EC ==\n");

  ftqc::Layout layout;
  const codes::CodeBlock data = layout.block(codes::steane_code());
  auto anc = ftqc::allocate_recovery_ancillas(layout, codes::steane_code());
  auto n_anc = ftqc::allocate_ngate_ancillas(layout, codes::steane_code(), 3);
  const auto readout = layout.reg(7);
  std::printf("each computer: %zu qubits (7 data + EC and N-gate ancillas)\n",
              layout.total());

  // Encode |1>_L on every computer (noiselessly), then alternate noisy idle
  // storage with measurement-free recovery rounds.
  circuit::Circuit prep(layout.total());
  codes::steane_code().append_encode_zero(prep, data);
  codes::steane_code().append_logical_x(prep, data);

  circuit::Circuit store(layout.total());
  for (int i = 0; i < 10; ++i)
    for (auto q : data.q) store.idle(q);
  circuit::Circuit recover(layout.total());
  ftqc::append_recovery(recover, codes::steane_code(), data, anc);

  // Logical readout, the paper's way: individual data qubits of a codeword
  // carry ZERO expectation signal (that's the encoding working); the N gate
  // copies the logical value onto a classical register whose ensemble
  // signal IS readable.
  circuit::Circuit ngate(layout.total());
  ftqc::append_ngate(ngate, codes::steane_code(), data, readout, n_anc);

  const double p = 2e-3;
  const auto storage_noise = noise::NoiseModel::paper_model(p);

  auto logical_signal = [&](ensemble::CliffordEnsembleMachine& m) {
    m.run(ngate);
    double sum = 0;
    for (auto q : readout) sum += m.readout_z(q);
    return sum / 7.0;
  };

  std::printf("\nstorage noise p = %g on the data during idles; recovery "
              "and readout run noiselessly here\n",
              p);
  std::printf("%-22s %-14s %-16s\n", "round", "with recovery",
              "without recovery");
  ensemble::CliffordEnsembleMachine protected_ens(layout.total(), 40, 11);
  ensemble::CliffordEnsembleMachine bare_ens(layout.total(), 40, 13);
  protected_ens.run(prep);
  bare_ens.run(prep);
  for (int round = 1; round <= 3; ++round) {
    protected_ens.run(store, &storage_noise);
    protected_ens.run(recover);
    bare_ens.run(store, &storage_noise);
    // Readout via the (measurement-free) N gate; -1 = clean |1>_L.
    std::printf("%-22d %-14.4f %-16.4f\n", round,
                logical_signal(protected_ens), logical_signal(bare_ens));
  }
  std::printf("\nThe protected ensemble's N-gate register signal stays at "
              "-1 (|1>_L);\nthe unprotected one decays as storage errors "
              "accumulate past distance 3.\n");
  return 0;
}
