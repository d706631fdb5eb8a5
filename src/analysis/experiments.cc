#include "analysis/experiments.h"

#include "analysis/campaign.h"
#include "analysis/frame_oracle.h"
#include "common/assert.h"
#include "frame/driver.h"
#include "ftqc/layout.h"
#include "ftqc/ngate.h"
#include "ftqc/recovery.h"

namespace eqc::analysis {

using codes::CodeBlock;
using codes::CssCode;

namespace {

// Encodes `input` into block `b`: |0>_L, |1>_L = X_L |0>_L, or |+>_L.
void append_input(circuit::Circuit& prep, const CssCode& code,
                  const CodeBlock& b, LogicalInput input) {
  if (input == LogicalInput::Plus) return code.append_encode_plus(prep, b);
  code.append_encode_zero(prep, b);
  if (input == LogicalInput::One) code.append_logical_x(prep, b);
}

// True iff block `b`, after one ideal correction drawing on Rng(rng_seed),
// no longer holds `input`: logical X must read +1 for |+>_L, logical Z
// +1 for |0>_L and -1 for |1>_L.
bool lost_input(const CssCode& code, stab::Tableau& tab, const CodeBlock& b,
                LogicalInput input, std::uint64_t rng_seed) {
  Rng rng(rng_seed);
  code.perfect_correct(tab, b, rng);
  const std::size_t n = tab.num_qubits();
  const auto logical = input == LogicalInput::Plus ? code.logical_x_op(n, b)
                                                   : code.logical_z_op(n, b);
  return tab.expectation_pauli(logical) !=
         (input == LogicalInput::One ? -1.0 : 1.0);
}

BuiltGadget build_ngate(const GadgetSpec& spec) {
  const CssCode& code = scenario_code(spec.scenario);
  const int reps = spec.scenario.reps();
  ftqc::Layout layout;
  const CodeBlock source = layout.block(code);
  auto anc = ftqc::allocate_ngate_ancillas(layout, code, reps);
  const auto out = layout.reg(code.n());
  const LogicalInput input = *spec.input;

  BuiltGadget built;
  FaultExperiment& ex = built.ex;
  ex.num_qubits = layout.total();
  ex.prep = circuit::Circuit(layout.total());
  append_input(ex.prep, code, source, input);
  ex.gadget = circuit::Circuit(layout.total());
  ftqc::NGateOptions nopt;
  nopt.repetitions = reps;
  nopt.syndrome_check = spec.syndrome;
  ftqc::append_ngate(ex.gadget, code, source, out, anc, nopt);
  const CssCode* c = &code;
  ex.failed = [out, source, c, input](circuit::TabBackend& b,
                                      const circuit::ExecResult&) {
    int ones = 0;
    for (auto q : out) ones += b.tableau().deterministic_z_value(q) ? 1 : 0;
    if ((2 * ones > static_cast<int>(out.size())) !=
        (input == LogicalInput::One))
      return true;
    return lost_input(*c, b.tableau(), source, input, 3);
  };
  ex.seed = spec.seed;
  built.main_block = source;
  built.code = c;
  built.ngate_out = out;
  return built;
}

BuiltGadget build_recovery(const GadgetSpec& spec, bool measurement_free) {
  const CssCode& code = scenario_code(spec.scenario);
  ftqc::Layout layout;
  const CodeBlock data = layout.block(code);
  auto anc =
      ftqc::allocate_recovery_ancillas(layout, code, spec.scenario.reps());
  BuiltGadget built;
  FaultExperiment& ex = built.ex;
  ex.num_qubits = layout.total();
  ex.prep = circuit::Circuit(layout.total());
  append_input(ex.prep, code, data, *spec.input);
  ex.gadget = circuit::Circuit(layout.total());
  ftqc::RecoveryOptions ropt;
  ropt.rounds = spec.scenario.reps();
  ropt.measurement_free = measurement_free;
  ftqc::RecoveryRoundMarks marks;
  ftqc::append_recovery(ex.gadget, code, data, anc, ropt, &marks);
  const CssCode* c = &code;
  ex.failed = [data, c, input = *spec.input](circuit::TabBackend& b,
                                             const circuit::ExecResult&) {
    return lost_input(*c, b.tableau(), data, input, 5);
  };
  ex.seed = spec.seed;
  built.main_block = data;
  built.code = c;
  // Probe between syndrome rounds / after correction layers only: the
  // recovery rounds are where codespace membership is the meaningful
  // invariant ("is the data block still a codeword between rounds?").
  built.probe_after =
      probe_ordinals_for_op_boundaries(ex.gadget, marks.op_boundaries);
  return built;
}

}  // namespace

bool is_known_noise(const std::string& name) {
  return name == "paper" || name == "correlated" || name == "biased-z";
}

const codes::CssCode& scenario_code(const Scenario& s) {
  const codes::CssCode* code = codes::find_code(s.code);
  EQC_CHECK(code != nullptr && "unknown code name");
  return *code;
}

FaultModel scenario_fault_model(const Scenario& s) {
  EQC_EXPECTS(is_known_noise(s.noise));
  if (s.noise == "correlated") return FaultModel::FullDepolarizing;
  if (s.noise == "biased-z") return FaultModel::SingleQubitZ;
  return FaultModel::SingleQubit;
}

noise::NoiseModel scenario_noise_model(const Scenario& s, double p) {
  EQC_EXPECTS(is_known_noise(s.noise));
  if (s.noise == "correlated") return noise::NoiseModel::depolarizing(p);
  if (s.noise == "biased-z") return noise::NoiseModel::biased_z(p);
  return noise::NoiseModel::paper_model(p);
}

bool is_known_gadget(const std::string& name) {
  return name == "ngate" || name == "recovery" || name == "recovery-measured";
}

BuiltGadget build_gadget_experiment(const GadgetSpec& spec) {
  EQC_EXPECTS(is_known_gadget(spec.gadget));
  EQC_EXPECTS(spec.scenario.repetition_k >= 0);
  const bool ngate = spec.gadget == "ngate";
  GadgetSpec resolved = spec;
  resolved.input =
      spec.input.value_or(ngate ? LogicalInput::One : LogicalInput::Zero);
  // The N gate copies a Z-basis value (|+>_L has none to copy); the
  // recovery gadgets are judged on |0>_L and |+>_L.
  EQC_EXPECTS(resolved.input !=
              (ngate ? LogicalInput::Plus : LogicalInput::One));
  BuiltGadget built = ngate ? build_ngate(resolved)
                            : build_recovery(resolved,
                                             spec.gadget == "recovery");
  built.ex.model = scenario_fault_model(spec.scenario);
  built.spec = std::move(resolved);
  return built;
}

FailureCounter run_gadget_mc(const BuiltGadget& built,
                             const noise::NoiseModel& model,
                             std::uint64_t trials, std::uint64_t seed,
                             const noise::McResumableOptions& opt) {
  const frame::FrameProgram prog = make_frame_program(built.ex);
  const frame::BatchOracle oracle =
      make_frame_oracle(built.spec.gadget, built, prog);
  return frame::run_trials(prog, model, trials, seed, oracle, opt);
}

}  // namespace eqc::analysis
