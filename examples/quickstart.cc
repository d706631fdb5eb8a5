// Quickstart: the paper's headline result in ~60 lines.
//
// 1. Encode a logical qubit in the Steane [[7,1,3]] code.
// 2. Apply the measurement-free fault-tolerant T gate of Fig. 3: magic
//    state preparation (Fig. 2 scheme), the N gate (Fig. 1) in place of the
//    measurement, and a classically controlled logical S.
// 3. Verify the logical output is exactly T_L |+>_L.
// 4. Prove the fault-tolerance claim: exhaustively inject every single
//    fault into the N gate and confirm none corrupts the classical copy.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build &&
//               ./build/examples/quickstart
#include <cmath>
#include <complex>
#include <cstdio>

#include "analysis/campaign.h"
#include "circuit/execute.h"
#include "circuit/sv_backend.h"
#include "codes/css_code.h"
#include "codes/steane.h"
#include "ftqc/ft_tgate.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"

using namespace eqc;
using codes::Steane;

int main() {
  std::printf("== eqc quickstart: measurement-free fault-tolerant T ==\n\n");

  // --- Registers: data block, special block (reused as the classical
  //     control register), N-gate ancillas. ------------------------------
  const codes::CssCode& code = codes::steane_code();
  ftqc::Layout layout;
  ftqc::TGateRegisters regs;
  regs.data = layout.block(code);
  regs.special = layout.block(code);
  regs.n_anc = ftqc::allocate_ngate_ancillas(layout, code, /*repetitions=*/3);
  regs.control.assign(regs.special.q.begin(), regs.special.q.end());

  // --- Initial state: |+>_L on the data, the magic state |psi_0> on the
  //     special block (its measurement-free preparation is exercised by
  //     bench_fig2_special_state). ---------------------------------------
  const double inv = 1.0 / std::sqrt(2.0);
  const cplx omega = std::polar(1.0, M_PI / 4);
  const auto data_amps = Steane::encoded_amplitudes(inv, inv);
  const auto psi0 = Steane::encoded_amplitudes(inv, inv * omega);
  std::vector<cplx> amp(std::uint64_t{1} << layout.total(), cplx{0, 0});
  for (unsigned d = 0; d < 128; ++d)
    for (unsigned s = 0; s < 128; ++s)
      amp[(std::uint64_t{s} << 7) | d] = data_amps[d] * psi0[s];
  circuit::SvBackend backend(
      qsim::StateVector::from_amplitudes(std::move(amp)), Rng(1));

  // --- The measurement-free T gadget (Fig. 3). --------------------------
  circuit::Circuit gadget(layout.total());
  ftqc::append_ft_t_gadget(gadget, code, regs, ftqc::NGateOptions{});
  circuit::execute(gadget, backend);

  const auto want = Steane::encoded_amplitudes(inv, omega * inv);
  std::vector<std::size_t> data_qubits(regs.data.q.begin(),
                                       regs.data.q.end());
  const double fidelity =
      backend.state().subsystem_fidelity(data_qubits, want);
  std::printf("T_L |+>_L output fidelity (no measurement anywhere): %.12f\n",
              fidelity);

  // --- Fault-tolerance proof for the N gate (Fig. 1). -------------------
  ftqc::Layout nl;
  const codes::CodeBlock source = nl.block(codes::steane_code());
  auto anc = ftqc::allocate_ngate_ancillas(nl, codes::steane_code(), 3);
  const auto out = nl.reg(7);
  analysis::FaultExperiment ex;
  ex.num_qubits = nl.total();
  ex.prep = circuit::Circuit(nl.total());
  codes::steane_code().append_encode_zero(ex.prep, source);
  codes::steane_code().append_logical_x(ex.prep, source);  // copy |1>_L
  ex.gadget = circuit::Circuit(nl.total());
  ftqc::append_ngate(ex.gadget, codes::steane_code(), source, out, anc);
  ex.failed = [out](circuit::TabBackend& b, const circuit::ExecResult&) {
    int ones = 0;
    for (auto q : out) ones += b.tableau().deterministic_z_value(q) ? 1 : 0;
    return 2 * ones <= static_cast<int>(out.size());  // majority must be 1
  };
  analysis::CampaignConfig cfg;
  cfg.k = 1;       // single faults...
  cfg.budget = 0;  // ...every one of them
  const auto report = analysis::run_campaign(ex, cfg);
  std::printf(
      "N gate: %zu fault sites, %llu single faults injected, %llu failures\n",
      report.num_sites, static_cast<unsigned long long>(report.sets_tested),
      static_cast<unsigned long long>(report.malignant));
  std::printf("=> %s\n", report.malignant == 0
                             ? "every single fault is harmless (O(p^2))"
                             : "NOT fault tolerant");
  return report.malignant == 0 && fidelity > 1.0 - 1e-9 ? 0 : 1;
}
