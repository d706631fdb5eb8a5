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

BuiltGadget build_ngate(const GadgetSpec& spec) {
  const CssCode& code = scenario_code(spec.scenario);
  const int reps = spec.scenario.reps();
  ftqc::Layout layout;
  const CodeBlock source = layout.block(code);
  auto anc = ftqc::allocate_ngate_ancillas(layout, code, reps);
  const auto out = layout.reg(code.n());

  BuiltGadget built;
  FaultExperiment& ex = built.ex;
  ex.num_qubits = layout.total();
  ex.prep = circuit::Circuit(layout.total());
  code.append_encode_zero(ex.prep, source);
  code.append_logical_x(ex.prep, source);
  ex.gadget = circuit::Circuit(layout.total());
  ftqc::NGateOptions nopt;
  nopt.repetitions = reps;
  nopt.syndrome_check = spec.syndrome;
  ftqc::append_ngate(ex.gadget, code, source, out, anc, nopt);
  const CssCode* c = &code;
  ex.failed = [out, source, c](circuit::TabBackend& b,
                               const circuit::ExecResult&) {
    int ones = 0;
    for (auto q : out) ones += b.tableau().deterministic_z_value(q) ? 1 : 0;
    if (2 * ones <= static_cast<int>(out.size())) return true;
    Rng rng(3);
    c->perfect_correct(b.tableau(), source, rng);
    return c->logical_z_expectation(b.tableau(), source) != -1.0;
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
  code.append_encode_zero(ex.prep, data);
  ex.gadget = circuit::Circuit(layout.total());
  ftqc::RecoveryOptions ropt;
  ropt.rounds = spec.scenario.reps();
  ropt.measurement_free = measurement_free;
  ftqc::RecoveryRoundMarks marks;
  ftqc::append_recovery(ex.gadget, code, data, anc, ropt, &marks);
  const CssCode* c = &code;
  ex.failed = [data, c](circuit::TabBackend& b, const circuit::ExecResult&) {
    Rng rng(5);
    c->perfect_correct(b.tableau(), data, rng);
    return c->logical_z_expectation(b.tableau(), data) != 1.0;
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
  BuiltGadget built;
  if (spec.gadget == "ngate")
    built = build_ngate(spec);
  else if (spec.gadget == "recovery")
    built = build_recovery(spec, true);
  else
    built = build_recovery(spec, false);
  built.ex.model = scenario_fault_model(spec.scenario);
  return built;
}

noise::McRunResult run_gadget_mc(const std::string& gadget,
                                 const BuiltGadget& built,
                                 const noise::NoiseModel& model,
                                 std::uint64_t trials, std::uint64_t seed,
                                 const noise::McResumableOptions& opt) {
  const frame::FrameProgram prog = make_frame_program(built.ex);
  const frame::BatchOracle oracle = make_frame_oracle(gadget, built, prog);
  return frame::run_trials_resumable(prog, model, trials, seed, oracle, opt);
}

}  // namespace eqc::analysis
