// Batch Pauli-frame simulator: 64 Monte-Carlo trials per machine word.
//
// The paper's ensemble semantics — one reference circuit executed
// simultaneously by many molecules, each molecule differing only by which
// errors struck it — is literally a Pauli-frame execution model.  A trial's
// state is F |ref>, where |ref> is the state of the fault-free reference
// run and F is a Pauli operator (the "frame") accumulating every injected
// error, conjugated forward through the circuit.  Phases of F are
// irrelevant (no observable of the trial depends on them), so a frame is
// just one X bit and one Z bit per qubit — and 64 trials pack into one
// uint64_t word per qubit per plane, advancing 64 trials with each pass
// over a precompiled instruction tape.
//
// Soundness.  Whether a Z measurement is random or deterministic, which
// branch TabBackend's classical-control lowering takes, and whether a
// lowered gate is legal are all properties of the STABILIZER GROUP, and
// the trial group F (ref group) F differs from the reference group only in
// generator signs.  Hence every trial takes the same branches as the
// reference run and consumes backend randomness in exactly the same
// pattern (one bernoulli(0.5) per random measurement or reset, none for
// deterministic ones), even though the applied gate sequences differ per
// trial.  That is what makes the frame pass BIT-EXACT against the
// per-trial TabBackend driver: same RNG stream layout, same outcomes,
// same failure verdicts.  See DESIGN.md section 13 for the derivations.
//
// What is NOT frame-simulable: T gates (non-Clifford; TabBackend rejects
// them too) and classically controlled S / controlled-S / controlled-
// controlled gates whose per-trial deviation from the reference branch
// cannot be absorbed as a Pauli (it can when the relevant qubit is
// ref-classical at that point).  Those cases throw FrameUnsupported at
// run time, and only when some trial in the batch actually deviates.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/execute.h"
#include "common/rng.h"
#include "noise/model.h"
#include "pauli/pauli_string.h"
#include "stab/tableau.h"

namespace eqc::circuit {
class TabBackend;
}  // namespace eqc::circuit

namespace eqc::frame {

/// Thrown when a circuit (or a specific batch of trials) exercises a
/// feature the frame model cannot absorb as a Pauli deviation.
class FrameUnsupported : public std::runtime_error {
 public:
  explicit FrameUnsupported(const std::string& what)
      : std::runtime_error(what) {}
};

/// Deliberately wrong propagation rules (differential-oracle self-test).
enum class FrameBug {
  None,
  /// CNOT frame propagation with control and target swapped.
  CnotSwapped,
};

/// A Pauli error planted at one gadget fault site (ordinal = position in
/// the deterministic site visitation order of the gadget circuit, exactly
/// circuit::enumerate_fault_sites(gadget)).
struct PlantedFault {
  std::size_t ordinal = 0;
  pauli::PauliString error;
};

/// A (prep, gadget) circuit pair compiled against one reference execution
/// into a frame instruction tape.
///
/// Compilation runs the reference pass once — a TabBackend seeded with
/// `ref_seed`, walking prep (no fault sites) then gadget (fault sites in
/// executor order) — and records, per op, the frame-propagation rule plus
/// everything the batch interpreter needs from the reference state at that
/// point: measurement pivot stabilizers, reference outcomes, classical
/// values used to absorb per-trial deviations of lowered gates.
///
/// For planted-fault replay (run_planted) the program must be compiled
/// with ref_seed equal to the seed the per-trial driver would hand its
/// backend (FaultExperiment::seed): planted trials then share the
/// reference's measurement record bit for bit.
class FrameProgram {
 public:
  FrameProgram(std::size_t num_qubits, const circuit::Circuit& prep,
               const circuit::Circuit& gadget, std::uint64_t ref_seed);

  std::size_t num_qubits() const { return n_; }
  std::size_t num_gadget_cbits() const { return gadget_cbits_; }
  std::uint64_t ref_seed() const { return ref_seed_; }
  /// Number of gadget fault sites (== enumerate_fault_sites(gadget).size()).
  std::size_t num_sites() const { return sites_.size(); }

  /// Reference state after prep + gadget (fault-free run at ref_seed).
  const stab::Tableau& reference_tableau() const { return ref_final_; }
  /// Reference gadget measurement record.
  const std::vector<bool>& reference_cbits() const { return ref_cbits_; }
  /// Reference backend RNG state after the full run (= the shared backend
  /// stream state of every planted-fault trial after its run).
  const Rng& reference_rng_after() const { return ref_rng_after_; }

  /// Test hook: corrupt one propagation rule (harness self-test).
  void set_planted_bug(FrameBug bug) { bug_ = bug; }
  FrameBug planted_bug() const { return bug_; }

 private:
  friend class FrameBatch;

  // Fault sites are not instructions: the tape holds gates only, and
  // site_pos_ says where each site's faults fold in.
  enum class IKind : std::uint8_t {
    H,            // a = q
    S,            // a = q (S and Sdg propagate frames identically)
    Cnot,         // a = control, b = target
    Cz,           // a, b
    Swap,         // a, b
    MeasDet,      // a = q, b = slot; flags: r0
    MeasRnd,      // a = q, b = slot, c = g index; flags: r0
    ResetDet,     // a = q
    ResetRnd,     // a = q, c = g index; flags: r0
    LowS,         // CS/CSdg: a = control, b = target; flags: vr, b-classical
    LowCnot,      // CCX: a = pivot, b = other, c = target;
                  // flags: vr, b-classical, b-value
    LowCz,        // CCZ: a = pivot, b/c = inner pair; flags: vr,
                  // b-classical, b-value, c-classical, c-value
    CondX,        // a = q, b = func; flags: ref outcome R
    CondZ,        // a = q, b = func; flags: R
    CondS,        // a = q, b = func; flags: R, a-classical
    CondCnot,     // a = control, b = target, c = func; flags: R,
                  // a-classical, a-value
    CondCz,       // a, b, c = func; flags: R, a-classical, a-value,
                  // b-classical, b-value
    BeginGadget,  // prep/gadget boundary: fresh classical record
  };

  // Flag bits (meaning depends on the kind; see IKind comments).
  static constexpr std::uint8_t kFlag0 = 1;  // r0 / vr / R
  static constexpr std::uint8_t kFlag1 = 2;  // first classical flag
  static constexpr std::uint8_t kFlag2 = 4;  // first classical value
  static constexpr std::uint8_t kFlag3 = 8;  // second classical flag
  static constexpr std::uint8_t kFlag4 = 16; // second classical value

  struct Instr {
    IKind kind;
    std::uint8_t flags = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t c = 0;
  };

  /// Gadget fault site (executor visitation order), stored inline: the
  /// stochastic walk reads `kind` and `arity` of every sampled site.
  struct SiteRec {
    circuit::FaultSite::Kind kind;
    std::uint8_t arity = 0;
    std::uint32_t q[3] = {0, 0, 0};
  };

  /// Pivot stabilizer of a random measurement/reset, pre-split into its
  /// X- and Z-support lists for the word-level fold.
  struct BranchOp {
    std::vector<std::uint32_t> xs;
    std::vector<std::uint32_t> zs;
  };

  void walk(const circuit::Circuit& c, circuit::TabBackend& ref,
            std::vector<bool>& ref_cb, bool emit_sites);
  std::uint32_t intern_func(const circuit::Circuit& c, std::uint32_t id,
                            std::vector<std::uint32_t>& cache);
  std::uint32_t capture_branch(const stab::Tableau& tab, std::size_t pivot,
                               std::size_t q);

  std::size_t n_;
  std::size_t prep_cbits_ = 0;
  std::size_t gadget_cbits_ = 0;
  std::uint64_t ref_seed_;
  FrameBug bug_ = FrameBug::None;

  std::vector<Instr> instrs_;
  std::vector<SiteRec> sites_;
  // site_pos_[s] = tape index of the first instruction after site s (a
  // MeasureZ input site sits before its readout; the last sites may sit at
  // instrs_.size(), past the final instruction).
  std::vector<std::uint32_t> site_pos_;
  std::vector<BranchOp> branches_;
  std::vector<circuit::ClassicalFunc> funcs_;

  stab::Tableau ref_final_{1};
  std::vector<bool> ref_cbits_;
  Rng ref_rng_after_{0};
};

/// One 64-lane batch execution of a FrameProgram.  Lane l of a stochastic
/// batch reproduces trial index first_index + l of the canonical per-trial
/// Monte-Carlo lambda bit for bit:
///
///   Rng trial_rng(derive_stream_seed(seed, i));
///   TabBackend backend(n, trial_rng.split());          // lane backend rng
///   execute(prep, backend);
///   StochasticInjector injector(model, trial_rng.split());  // lane inj rng
///   auto r = execute(gadget, backend, &injector);
///
/// Unused lanes (count < 64) keep all-zero frames: every per-lane update
/// word is masked with active_mask(), and Pauli conjugation preserves the
/// zero frame.
///
/// A batch costs per fault, not per lane where it can: a lane's backend
/// stream is seeded only when a random measurement draws from it or
/// lane_backend_rng() reads it, and the classical record stays packed one
/// word per slot, unpacked into per-lane records only for classically
/// controlled ops and lane_cbits().  Both are caches the const accessors
/// fill, so a FrameBatch must not be shared between threads.
class FrameBatch {
 public:
  static constexpr unsigned kLanes = 64;

  explicit FrameBatch(const FrameProgram& prog);

  /// Runs lanes 0..count-1 as trials first_index..first_index+count-1 of
  /// the stochastic model (count <= 64).  Each lane's faults are drawn up
  /// front by noise::GapSampler from its injection stream; random
  /// measurements draw from its backend stream during the pass.
  void run_stochastic(const noise::NoiseModel& model, std::uint64_t seed,
                      std::uint64_t first_index, unsigned count);

  /// Runs lanes 0..lanes.size()-1 with per-lane planted fault lists
  /// (lanes.size() <= 64), sharing the reference backend stream — the
  /// analysis::run_with_faults regime.  Requires the program's ref_seed to
  /// be the experiment seed (see FrameProgram).
  void run_planted(const std::vector<std::vector<PlantedFault>>& lanes);

  unsigned count() const { return count_; }
  std::uint64_t active_mask() const { return active_; }
  std::size_t num_qubits() const { return n_; }

  /// Packed frame planes after the run: bit l of fx(q) = lane l's frame
  /// has an X component on qubit q.
  std::uint64_t fx(std::size_t q) const { return fx_[q]; }
  std::uint64_t fz(std::size_t q) const { return fz_[q]; }

  /// Lane l's frame as a PauliString (phase 0).
  pauli::PauliString lane_frame(unsigned l) const;
  /// Lane l's gadget measurement record (== per-trial ExecResult::cbits).
  const std::vector<bool>& lane_cbits(unsigned l) const;
  /// Packed word of classical slot `slot`: bit l = lane l's value.
  std::uint64_t cbits_word(std::uint32_t slot) const;
  /// Lane l's backend RNG state after the run — what the per-trial
  /// driver's TabBackend rng would hold, for failure predicates that keep
  /// drawing from it.
  const Rng& lane_backend_rng(unsigned l) const;

 private:
  /// A fault folded into one lane's frame at one site, site-local like
  /// noise::SiteError.
  struct Hit {
    std::uint32_t site;
    std::uint32_t lane;
    noise::SiteError error;
  };

  void reset_state(unsigned count);
  void exec();
  void run_tape(std::size_t begin, std::size_t end);
  std::uint64_t cond_word(std::uint32_t func);
  std::uint64_t draw_word(bool r0);
  void fold_branch(const FrameProgram::BranchOp& g, std::uint64_t e);
  void fold_hit(const Hit& h);
  void clear_cbits(std::size_t slots);
  void set_cbits(std::uint32_t slot, std::uint64_t word);
  void unpack_cbits() const;
  Rng& backend_rng(unsigned l) const;

  const FrameProgram& prog_;
  std::size_t n_;
  unsigned count_ = 0;
  std::uint64_t active_ = 0;
  bool planted_mode_ = false;

  std::vector<std::uint64_t> fx_;
  std::vector<std::uint64_t> fz_;
  // Classical record, packed: bit l of cwords_[slot] = lane l's value.
  std::vector<std::uint64_t> cwords_;
  // Per-lane unpacked record, valid when unpacked_ except for the slots
  // written since (stale_).
  mutable std::vector<std::vector<bool>> lane_cbits_;
  mutable std::vector<std::uint32_t> stale_;
  mutable bool unpacked_ = false;
  // Stochastic lanes' backend streams: lane l's seed, and its live Rng
  // once bit l of seeded_ is set.
  std::uint64_t backend_seed_[kLanes] = {};
  mutable std::vector<Rng> backend_rng_;
  mutable std::uint64_t seeded_ = 0;
  // Every fault of the batch.  exec() counting-sorts them by tape position
  // into by_pos_ (pos_start_ holds the per-position offsets), runs the
  // instructions between consecutive hit positions and folds each hit
  // where it sits.  All three keep their capacity across batches.
  std::vector<Hit> hits_;
  std::vector<Hit> by_pos_;
  std::vector<std::uint32_t> pos_start_;
};

}  // namespace eqc::frame
