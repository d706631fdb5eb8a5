// An encoded algorithm end to end, measurement-free: prepare |0>_L on the
// Steane code, run H_L · T_L · T_L · H_L (T applied via the paper's Fig. 3
// gadget with a freshly projected magic state each time), and compare the
// logical output against the same single-qubit program run unencoded.
#include <cmath>
#include <complex>
#include <cstdio>

#include "circuit/execute.h"
#include "circuit/sv_backend.h"
#include "codes/css_code.h"
#include "codes/steane.h"
#include "ftqc/ft_tgate.h"
#include "ftqc/layout.h"
#include "qsim/gates.h"

using namespace eqc;
using codes::Steane;

int main() {
  std::printf("== Encoded, measurement-free logical program ==\n");
  std::printf("program: |0>_L -> H_L -> T_L -> T_L -> H_L -> compare\n\n");

  // Registers (22 qubits total): the Fig. 2 cat bank reuses the N-gate
  // ancillas plus one extra bit — they are never live at the same time and
  // every builder re-prepares its ancillas.
  const codes::CssCode& code = codes::steane_code();
  ftqc::Layout layout;
  ftqc::TGateRegisters regs;
  regs.data = layout.block(code);
  regs.special = layout.block(code);
  regs.n_anc = ftqc::allocate_ngate_ancillas(layout, code, 1);
  regs.control.assign(regs.special.q.begin(), regs.special.q.end());

  ftqc::SpecialStateAncillas ss;
  ss.cat = {regs.n_anc.copies[0],  regs.n_anc.syndrome[0],
            regs.n_anc.syndrome[1], regs.n_anc.syndrome[2],
            regs.n_anc.work[0],     regs.n_anc.work[1],
            layout.bit()};
  ss.parity = {layout.bit()};
  ss.control = ss.cat;

  circuit::SvBackend backend(layout.total(), Rng(1));
  ftqc::NGateOptions opt;
  opt.repetitions = 1;
  opt.syndrome_check = true;

  {
    circuit::Circuit c(layout.total());
    code.append_encode_zero(c, regs.data);
    code.append_logical_h(c, regs.data);
    circuit::execute(c, backend);
  }
  for (int k = 0; k < 2; ++k) {
    std::printf("  applying measurement-free T gate %d/2...\n", k + 1);
    circuit::Circuit c(layout.total());
    for (auto q : regs.special.q) c.prep_z(q);
    ftqc::append_t_state_prep(c, code, regs.special, ss, 1);
    ftqc::append_ft_t_gadget(c, code, regs, opt);
    circuit::execute(c, backend);
  }
  {
    circuit::Circuit c(layout.total());
    code.append_logical_h(c, regs.data);
    circuit::execute(c, backend);
  }

  // Reference: the same single-qubit program, unencoded.
  qsim::StateVector ref(1);
  ref.apply1(0, qsim::gate_h());
  ref.apply1(0, qsim::gate_t());
  ref.apply1(0, qsim::gate_t());
  ref.apply1(0, qsim::gate_h());
  const cplx alpha = ref.amplitude(0);
  const cplx beta = ref.amplitude(1);

  const auto want = Steane::encoded_amplitudes(alpha, beta);
  std::vector<std::size_t> qs(regs.data.q.begin(), regs.data.q.end());
  const double f = backend.state().subsystem_fidelity(qs, want);
  std::printf("\nlogical output fidelity vs unencoded reference: %.12f\n", f);
  std::printf("reference state: (%.4f%+.4fi)|0> + (%.4f%+.4fi)|1>\n",
              alpha.real(), alpha.imag(), beta.real(), beta.imag());
  std::printf("%s\n", f > 1.0 - 1e-9 ? "PASS" : "FAIL");
  return f > 1.0 - 1e-9 ? 0 : 1;
}
