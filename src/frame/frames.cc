#include "frame/frames.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "circuit/schedule.h"
#include "circuit/tab_backend.h"
#include "circuit/walk.h"
#include "common/assert.h"

namespace eqc::frame {

namespace {

constexpr std::uint32_t kNoFunc = ~std::uint32_t{0};

std::uint64_t bcast(bool b) { return b ? ~std::uint64_t{0} : std::uint64_t{0}; }

}  // namespace

// --- compilation -------------------------------------------------------------

FrameProgram::FrameProgram(std::size_t num_qubits,
                           const circuit::Circuit& prep,
                           const circuit::Circuit& gadget,
                           std::uint64_t ref_seed)
    : n_(num_qubits),
      prep_cbits_(prep.num_cbits()),
      gadget_cbits_(gadget.num_cbits()),
      ref_seed_(ref_seed) {
  EQC_EXPECTS(n_ >= prep.num_qubits() && n_ >= gadget.num_qubits());
  circuit::TabBackend ref(n_, Rng(ref_seed));
  std::vector<bool> ref_cb(prep.num_cbits(), false);
  compile(prep, ref, ref_cb, /*emit_sites=*/false);
  instrs_.push_back(Instr{IKind::BeginGadget});
  ref_cb.assign(gadget.num_cbits(), false);
  compile(gadget, ref, ref_cb, /*emit_sites=*/true);
  ref_final_ = ref.tableau();
  ref_cbits_ = ref_cb;
  ref_rng_after_ = ref.rng();
}

std::uint32_t FrameProgram::intern_func(const circuit::Circuit& c,
                                        std::uint32_t id,
                                        std::vector<std::uint32_t>& cache) {
  EQC_EXPECTS(id < cache.size());
  if (cache[id] == kNoFunc) {
    cache[id] = static_cast<std::uint32_t>(funcs_.size());
    funcs_.push_back(c.classical_funcs().at(id));
  }
  return cache[id];
}

std::uint32_t FrameProgram::capture_branch(const stab::Tableau& tab,
                                           std::size_t pivot, std::size_t q) {
  // The stabilizer generator the random measurement will pivot on, captured
  // BEFORE the reference measurement rewrites it.  It anticommutes with
  // Z_q, so multiplying it into a trial's frame toggles that trial's
  // measured value — the per-lane outcome fixup.
  const pauli::PauliString g = tab.stabilizer(pivot);
  EQC_CHECK(g.x_bit(q));
  auto support = [](const std::vector<std::uint64_t>& words) {
    std::vector<std::uint32_t> qs;
    for (std::size_t k = 0; k < words.size(); ++k)
      for (std::uint64_t m = words[k]; m != 0; m &= m - 1)
        qs.push_back(static_cast<std::uint32_t>(64 * k + std::countr_zero(m)));
    return qs;
  };
  BranchOp rec{support(g.x_words()), support(g.z_words())};
  branches_.push_back(std::move(rec));
  return static_cast<std::uint32_t>(branches_.size() - 1);
}

void FrameProgram::compile(const circuit::Circuit& c,
                           circuit::TabBackend& ref, std::vector<bool>& ref_cb,
                           bool emit_sites) {
  const circuit::Schedule sched = circuit::schedule(c);
  const auto& ops = c.ops();
  std::vector<std::uint32_t> func_cache(c.classical_funcs().size(), kNoFunc);
  stab::Tableau& tab = ref.tableau();
  // Every op compiles to at most one instruction except PrepX (two), and
  // every op and idle location is one site.
  instrs_.reserve(instrs_.size() + ops.size() + 1);
  if (emit_sites) {
    sites_.reserve(sites_.size() + ops.size() + sched.total_idle_locations());
    site_pos_.reserve(sites_.capacity());
  }

  auto push = [&](IKind kind, std::uint8_t flags, std::uint32_t a,
                  std::uint32_t b = 0, std::uint32_t c2 = 0) {
    Instr in;
    in.kind = kind;
    in.flags = flags;
    in.a = a;
    in.b = b;
    in.c = c2;
    instrs_.push_back(in);
  };

  // reset-to-|0> of q, mirroring Tableau::reset(q, rng) with the branch
  // stabilizer captured before the collapse.
  auto compile_reset = [&](std::uint32_t q) {
    const std::size_t pivot = tab.z_measure_pivot(q);
    if (pivot == tab.num_qubits()) {
      const bool v = tab.measure(q, ref.rng());  // deterministic: no draw
      if (v) tab.x(q);
      push(IKind::ResetDet, 0, q);
    } else {
      const std::uint32_t gi = capture_branch(tab, pivot, q);
      const bool r0 = tab.measure(q, ref.rng());  // one bernoulli(0.5)
      if (r0) tab.x(q);
      push(IKind::ResetRnd, r0 ? kFlag0 : 0, q, 0, gi);
    }
  };

  auto compile_op = [&](const circuit::Op& op) {
    using OpKind = circuit::OpKind;
    switch (op.kind) {
      case OpKind::PrepZ:
        compile_reset(op.q[0]);
        break;
      case OpKind::PrepX:
        compile_reset(op.q[0]);
        tab.h(op.q[0]);
        push(IKind::H, 0, op.q[0]);
        break;
      case OpKind::H:
        tab.h(op.q[0]);
        push(IKind::H, 0, op.q[0]);
        break;
      case OpKind::X:
        tab.x(op.q[0]);
        break;  // Pauli: conjugation preserves frame bits
      case OpKind::Y:
        tab.y(op.q[0]);
        break;
      case OpKind::Z:
        tab.z(op.q[0]);
        break;
      case OpKind::S:
        tab.s(op.q[0]);
        push(IKind::S, 0, op.q[0]);
        break;
      case OpKind::Sdg:
        tab.sdg(op.q[0]);
        push(IKind::S, 0, op.q[0]);
        break;
      case OpKind::T:
        ref.t(op.q[0]);  // throws (non-Clifford), like the per-trial driver
        break;
      case OpKind::Tdg:
        ref.tdg(op.q[0]);
        break;
      case OpKind::CNOT:
        tab.cnot(op.q[0], op.q[1]);
        push(IKind::Cnot, 0, op.q[0], op.q[1]);
        break;
      case OpKind::CZ:
        tab.cz(op.q[0], op.q[1]);
        push(IKind::Cz, 0, op.q[0], op.q[1]);
        break;
      case OpKind::Swap:
        tab.swap(op.q[0], op.q[1]);
        push(IKind::Swap, 0, op.q[0], op.q[1]);
        break;
      case OpKind::CS:
      case OpKind::CSdg: {
        const std::uint32_t qc = op.q[0];
        const std::uint32_t qt = op.q[1];
        // Lowered as TabBackend lowers it; a non-lowerable gate goes to
        // TabBackend to throw the exact error the per-trial driver raises.
        const bool lowerable = tab.is_deterministic_z(qc);
        if (!lowerable && op.kind == OpKind::CS) ref.cs(qc, qt);
        if (!lowerable && op.kind == OpKind::CSdg) ref.csdg(qc, qt);
        EQC_CHECK(lowerable);
        const bool vr = tab.deterministic_z_value(qc);
        if (vr && op.kind == OpKind::CS) tab.s(qt);
        if (vr && op.kind == OpKind::CSdg) tab.sdg(qt);
        std::uint8_t flags = vr ? kFlag0 : 0;
        // A trial whose control deviates applies an extra S^(+-1); that is
        // a pure phase only when the target is reference-classical here.
        if (tab.is_deterministic_z(qt)) flags |= kFlag1;
        push(IKind::LowS, flags, qc, qt);
        break;
      }
      case OpKind::CCX: {
        const std::uint32_t q0 = op.q[0];
        const std::uint32_t q1 = op.q[1];
        const std::uint32_t qt = op.q[2];
        // Pivot selection order mirrors TabBackend::ccx exactly.
        std::uint32_t pivot = q0;
        std::uint32_t other = q1;
        if (!tab.is_deterministic_z(q0)) {
          pivot = q1;
          other = q0;
        }
        const bool lowerable = tab.is_deterministic_z(pivot);
        if (!lowerable) ref.ccx(q0, q1, qt);  // throws TabBackend's error
        EQC_CHECK(lowerable);
        const bool vr = tab.deterministic_z_value(pivot);
        if (vr) tab.cnot(other, qt);
        std::uint8_t flags = vr ? kFlag0 : 0;
        // Deviation residual CNOT(other, t) absorbs as X(t)^w when the
        // other control is reference-classical with value w.
        if (tab.is_deterministic_z(other)) {
          flags |= kFlag1;
          if (tab.deterministic_z_value(other)) flags |= kFlag2;
        }
        push(IKind::LowCnot, flags, pivot, other, qt);
        break;
      }
      case OpKind::CCZ: {
        const std::uint32_t qs[3] = {op.q[0], op.q[1], op.q[2]};
        int i = 0;
        while (i < 3 && !tab.is_deterministic_z(qs[i])) ++i;
        if (i == 3) ref.ccz(op.q[0], op.q[1], op.q[2]);  // throws
        EQC_CHECK(i < 3);
        const std::uint32_t pivot = qs[i];
        const std::uint32_t qj = qs[(i + 1) % 3];
        const std::uint32_t qk = qs[(i + 2) % 3];
        const bool vr = tab.deterministic_z_value(pivot);
        if (vr) tab.cz(qj, qk);
        std::uint8_t flags = vr ? kFlag0 : 0;
        if (tab.is_deterministic_z(qj)) {
          flags |= kFlag1;
          if (tab.deterministic_z_value(qj)) flags |= kFlag2;
        }
        if (tab.is_deterministic_z(qk)) {
          flags |= kFlag3;
          if (tab.deterministic_z_value(qk)) flags |= kFlag4;
        }
        push(IKind::LowCz, flags, pivot, qj, qk);
        break;
      }
      case OpKind::MeasureZ: {
        const std::uint32_t q = op.q[0];
        const std::size_t pivot = tab.z_measure_pivot(q);
        if (pivot == tab.num_qubits()) {
          const bool r0 = tab.measure(q, ref.rng());  // no draw
          ref_cb.at(op.carg) = r0;
          push(IKind::MeasDet, r0 ? kFlag0 : 0, q, op.carg);
        } else {
          const std::uint32_t gi = capture_branch(tab, pivot, q);
          const bool r0 = tab.measure(q, ref.rng());  // one bernoulli(0.5)
          ref_cb.at(op.carg) = r0;
          push(IKind::MeasRnd, r0 ? kFlag0 : 0, q, op.carg, gi);
        }
        break;
      }
      case OpKind::XIfC:
      case OpKind::ZIfC: {
        const bool r = c.classical_funcs().at(op.carg)(ref_cb);
        if (r) {
          if (op.kind == OpKind::XIfC)
            tab.x(op.q[0]);
          else
            tab.z(op.q[0]);
        }
        push(op.kind == OpKind::XIfC ? IKind::CondX : IKind::CondZ,
             r ? kFlag0 : 0, op.q[0], intern_func(c, op.carg, func_cache));
        break;
      }
      case OpKind::SIfC:
      case OpKind::SdgIfC: {
        const bool r = c.classical_funcs().at(op.carg)(ref_cb);
        if (r) {
          if (op.kind == OpKind::SIfC)
            tab.s(op.q[0]);
          else
            tab.sdg(op.q[0]);
        }
        std::uint8_t flags = r ? kFlag0 : 0;
        if (tab.is_deterministic_z(op.q[0])) flags |= kFlag1;
        push(IKind::CondS, flags, op.q[0],
             intern_func(c, op.carg, func_cache));
        break;
      }
      case OpKind::CNOTIfC: {
        const bool r = c.classical_funcs().at(op.carg)(ref_cb);
        if (r) tab.cnot(op.q[0], op.q[1]);
        std::uint8_t flags = r ? kFlag0 : 0;
        if (tab.is_deterministic_z(op.q[0])) {
          flags |= kFlag1;
          if (tab.deterministic_z_value(op.q[0])) flags |= kFlag2;
        }
        push(IKind::CondCnot, flags, op.q[0], op.q[1],
             intern_func(c, op.carg, func_cache));
        break;
      }
      case OpKind::CZIfC: {
        const bool r = c.classical_funcs().at(op.carg)(ref_cb);
        if (r) tab.cz(op.q[0], op.q[1]);
        std::uint8_t flags = r ? kFlag0 : 0;
        if (tab.is_deterministic_z(op.q[0])) {
          flags |= kFlag1;
          if (tab.deterministic_z_value(op.q[0])) flags |= kFlag2;
        }
        if (tab.is_deterministic_z(op.q[1])) {
          flags |= kFlag3;
          if (tab.deterministic_z_value(op.q[1])) flags |= kFlag4;
        }
        push(IKind::CondCz, flags, op.q[0], op.q[1],
             intern_func(c, op.carg, func_cache));
        break;
      }
      case OpKind::Idle:
        break;  // noise-only op; its site follows
    }
  };

  // A site's faults fold in just before the next instruction compiled.
  circuit::walk(
      c, sched, [&](std::size_t idx, std::size_t) { compile_op(ops[idx]); },
      [&](const circuit::FaultSite& site) {
        if (!emit_sites) return;
        sites_.push_back(site);
        site_pos_.push_back(static_cast<std::uint32_t>(instrs_.size()));
      });
}

// --- batch execution ---------------------------------------------------------

FrameBatch::FrameBatch(const FrameProgram& prog)
    : prog_(prog), n_(prog.num_qubits()) {}

void FrameBatch::reset_state(unsigned count) {
  EQC_EXPECTS(count >= 1 && count <= kLanes);
  count_ = count;
  active_ = count == kLanes ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << count) - 1;
  fx_.assign(n_, 0);
  fz_.assign(n_, 0);
  hits_.clear();
  clear_cbits(prog_.prep_cbits_);
}

void FrameBatch::run_stochastic(const noise::NoiseModel& model,
                                std::uint64_t seed, std::uint64_t first_index,
                                unsigned count) {
  reset_state(count);
  planted_mode_ = false;
  backend_rng_.resize(kLanes);  // once per FrameBatch; planted runs skip it
  seeded_ = 0;
  const noise::GapSampler sampler(model);
  const double clear = sampler.clear_below(prog_.sites_.size());
  for (unsigned l = 0; l < count_; ++l) {
    // The canonical per-trial lambda's stream layout, split for split; the
    // backend stream itself is built only if the lane draws from it.
    Rng trial_rng(derive_stream_seed(seed, first_index + l));
    backend_seed_[l] = trial_rng.split_seed();
    Rng inj_rng = trial_rng.split();
    sampler.for_each_fault(prog_.sites_, clear, inj_rng,
                           [this, l](std::size_t site, noise::SiteError e) {
                             hits_.push_back(
                                 Hit{static_cast<std::uint32_t>(site), l, e});
                           });
  }
  exec();
}

void FrameBatch::run_planted(
    const std::vector<std::vector<PlantedFault>>& lanes) {
  EQC_EXPECTS(!lanes.empty());
  reset_state(static_cast<unsigned>(lanes.size()));
  planted_mode_ = true;
  for (unsigned l = 0; l < count_; ++l) {
    for (const PlantedFault& f : lanes[l]) {
      EQC_EXPECTS(f.ordinal < prog_.sites_.size());
      const auto qs = prog_.sites_[f.ordinal].qubits();
      Hit h{static_cast<std::uint32_t>(f.ordinal), l, {}};
      for (std::size_t q : f.error.support()) {
        const auto it =
            std::find(qs.begin(), qs.end(), static_cast<std::uint32_t>(q));
        EQC_EXPECTS(it != qs.end());
        const auto bit = static_cast<std::uint8_t>(1u << (it - qs.begin()));
        if (f.error.x_bit(q)) h.error.x |= bit;
        if (f.error.z_bit(q)) h.error.z |= bit;
      }
      hits_.push_back(h);
    }
  }
  exec();
}

Rng& FrameBatch::backend_rng(unsigned l) const {
  const std::uint64_t bit = std::uint64_t{1} << l;
  if ((seeded_ & bit) == 0) {
    backend_rng_[l] = Rng(backend_seed_[l]);
    seeded_ |= bit;
  }
  return backend_rng_[l];
}

std::uint64_t FrameBatch::draw_word(bool r0) {
  if (planted_mode_) return bcast(r0) & active_;
  // bernoulli(0.5) is uniform() < 0.5, i.e. the raw draw's top bit is 0.
  std::uint64_t w = 0;
  for (unsigned l = 0; l < count_; ++l)
    w |= (~backend_rng(l)() >> 63) << l;
  return w;
}

void FrameBatch::unpack_cbits() const {
  if (!unpacked_) {
    lane_cbits_.resize(count_);
    for (auto& cb : lane_cbits_) cb.assign(cwords_.size(), false);
    for (std::size_t slot = 0; slot < cwords_.size(); ++slot)
      for (std::uint64_t w = cwords_[slot]; w != 0; w &= w - 1)
        lane_cbits_[std::countr_zero(w)][slot] = true;
    unpacked_ = true;
  } else {
    for (std::uint32_t slot : stale_)
      for (unsigned l = 0; l < count_; ++l)
        lane_cbits_[l][slot] = ((cwords_[slot] >> l) & 1) != 0;
  }
  stale_.clear();
}

std::uint64_t FrameBatch::cond_word(std::uint32_t func) {
  unpack_cbits();
  const circuit::ClassicalFunc& f = prog_.funcs_[func];
  std::uint64_t w = 0;
  for (unsigned l = 0; l < count_; ++l)
    if (f(lane_cbits_[l])) w |= std::uint64_t{1} << l;
  return w;
}

void FrameBatch::fold_branch(const FrameProgram::BranchOp& g,
                             std::uint64_t e) {
  if (e == 0) return;
  for (std::uint32_t q : g.xs) fx_[q] ^= e;
  for (std::uint32_t q : g.zs) fz_[q] ^= e;
}

void FrameBatch::fold_hit(const Hit& h) {
  const std::uint64_t bit = std::uint64_t{1} << h.lane;
  const circuit::FaultSite& site = prog_.sites_[h.site];
  for (unsigned i = 0; i < site.arity; ++i) {
    if ((h.error.x >> i) & 1) fx_[site.q[i]] ^= bit;
    if ((h.error.z >> i) & 1) fz_[site.q[i]] ^= bit;
  }
}

void FrameBatch::clear_cbits(std::size_t slots) {
  cwords_.assign(slots, 0);
  stale_.clear();
  unpacked_ = false;
}

void FrameBatch::set_cbits(std::uint32_t slot, std::uint64_t word) {
  cwords_[slot] = word & active_;
  if (unpacked_) stale_.push_back(slot);
}

void FrameBatch::exec() {
  // Hits arrive lane by lane; the tape meets them position by position.
  // Counting sort by position (folds at one position commute): count,
  // prefix-sum, scatter.
  const std::vector<std::uint32_t>& site_pos = prog_.site_pos_;
  const std::size_t tape_len = prog_.instrs_.size();
  pos_start_.assign(tape_len + 2, 0);
  for (const Hit& h : hits_) ++pos_start_[site_pos[h.site] + 1];
  for (std::size_t p = 1; p < pos_start_.size(); ++p)
    pos_start_[p] += pos_start_[p - 1];
  by_pos_.resize(hits_.size());
  for (const Hit& h : hits_) by_pos_[pos_start_[site_pos[h.site]]++] = h;

  // Run the tape up to each hit's position and fold the hit there.
  std::size_t pc = 0;
  for (const Hit& h : by_pos_) {
    const std::size_t pos = site_pos[h.site];
    run_tape(pc, pos);
    pc = pos;
    fold_hit(h);
  }
  run_tape(pc, tape_len);
}

void FrameBatch::run_tape(std::size_t begin, std::size_t end) {
  using IKind = FrameProgram::IKind;
  constexpr std::uint8_t kFlag0 = FrameProgram::kFlag0;
  constexpr std::uint8_t kFlag1 = FrameProgram::kFlag1;
  constexpr std::uint8_t kFlag2 = FrameProgram::kFlag2;
  constexpr std::uint8_t kFlag3 = FrameProgram::kFlag3;
  constexpr std::uint8_t kFlag4 = FrameProgram::kFlag4;

  for (std::size_t pc = begin; pc < end; ++pc) {
    const FrameProgram::Instr& ins = prog_.instrs_[pc];
    switch (ins.kind) {
      case IKind::H:
        std::swap(fx_[ins.a], fz_[ins.a]);
        break;
      case IKind::S:
        fz_[ins.a] ^= fx_[ins.a];
        break;
      case IKind::Cnot:
        if (prog_.bug_ == FrameBug::CnotSwapped) {
          fx_[ins.a] ^= fx_[ins.b];
          fz_[ins.b] ^= fz_[ins.a];
        } else {
          fx_[ins.b] ^= fx_[ins.a];
          fz_[ins.a] ^= fz_[ins.b];
        }
        break;
      case IKind::Cz: {
        const std::uint64_t xa = fx_[ins.a];
        const std::uint64_t xb = fx_[ins.b];
        fz_[ins.a] ^= xb;
        fz_[ins.b] ^= xa;
        break;
      }
      case IKind::Swap:
        std::swap(fx_[ins.a], fx_[ins.b]);
        std::swap(fz_[ins.a], fz_[ins.b]);
        break;
      case IKind::MeasDet:
        // Trial value = reference value XOR the frame's X bit; no draw, no
        // frame change (the state was already an eigenstate).
        set_cbits(ins.b, fx_[ins.a] ^ bcast((ins.flags & kFlag0) != 0));
        break;
      case IKind::MeasRnd: {
        const bool r0 = (ins.flags & kFlag0) != 0;
        const std::uint64_t rt = draw_word(r0);
        // Lanes whose sampled outcome differs from what the frame would
        // make of the reference outcome fold the pivot stabilizer in —
        // the post-measurement states differ by exactly that operator.
        const std::uint64_t e = (rt ^ fx_[ins.a] ^ bcast(r0)) & active_;
        fold_branch(prog_.branches_[ins.c], e);
        set_cbits(ins.b, rt);
        break;
      }
      case IKind::ResetDet:
        // Both reference and trial land in |0>: clear the X bit (the Z bit
        // is gauge — Z_q stabilizes |0>).
        fx_[ins.a] &= ~active_;
        break;
      case IKind::ResetRnd: {
        const bool r0 = (ins.flags & kFlag0) != 0;
        const std::uint64_t rt = draw_word(r0);
        const std::uint64_t e = (rt ^ fx_[ins.a] ^ bcast(r0)) & active_;
        fold_branch(prog_.branches_[ins.c], e);
        // The conditional X flips (trial X^rt vs reference X^r0) cancel
        // the measurement fixup at q: the X bit ends 0 on active lanes.
        fx_[ins.a] ^= (rt ^ bcast(r0)) & active_;
        break;
      }
      case IKind::LowS: {
        // Lowered controlled-S: trial applies S(t) iff its (classical)
        // control reads 1 = reference value XOR frame X bit.
        const std::uint64_t m = fx_[ins.a] ^ bcast((ins.flags & kFlag0) != 0);
        fz_[ins.b] ^= fx_[ins.b] & m;
        if ((fx_[ins.a] & active_) != 0 && (ins.flags & kFlag1) == 0)
          throw FrameUnsupported(
              "frame: controlled-S control deviation with non-classical "
              "target");
        break;
      }
      case IKind::LowCnot: {
        const std::uint64_t m = fx_[ins.a] ^ bcast((ins.flags & kFlag0) != 0);
        fx_[ins.c] ^= fx_[ins.b] & m;
        fz_[ins.b] ^= fz_[ins.c] & m;
        const std::uint64_t d = fx_[ins.a] & active_;
        if (d != 0) {
          if ((ins.flags & kFlag1) == 0)
            throw FrameUnsupported(
                "frame: CCX pivot deviation with non-classical second "
                "control");
          fx_[ins.c] ^= d & bcast((ins.flags & kFlag2) != 0);
        }
        break;
      }
      case IKind::LowCz: {
        const std::uint64_t m = fx_[ins.a] ^ bcast((ins.flags & kFlag0) != 0);
        const std::uint64_t xj = fx_[ins.b];
        const std::uint64_t xk = fx_[ins.c];
        fz_[ins.b] ^= xk & m;
        fz_[ins.c] ^= xj & m;
        const std::uint64_t d = fx_[ins.a] & active_;
        if (d != 0) {
          if ((ins.flags & kFlag1) != 0)
            fz_[ins.c] ^= d & bcast((ins.flags & kFlag2) != 0);
          else if ((ins.flags & kFlag3) != 0)
            fz_[ins.b] ^= d & bcast((ins.flags & kFlag4) != 0);
          else
            throw FrameUnsupported(
                "frame: CCZ pivot deviation with no classical inner qubit");
        }
        break;
      }
      case IKind::CondX:
        fx_[ins.a] ^=
            (cond_word(ins.b) ^ bcast((ins.flags & kFlag0) != 0)) & active_;
        break;
      case IKind::CondZ:
        fz_[ins.a] ^=
            (cond_word(ins.b) ^ bcast((ins.flags & kFlag0) != 0)) & active_;
        break;
      case IKind::CondS: {
        const std::uint64_t cw = cond_word(ins.b);
        fz_[ins.a] ^= fx_[ins.a] & cw;
        const std::uint64_t d =
            (cw ^ bcast((ins.flags & kFlag0) != 0)) & active_;
        if (d != 0 && (ins.flags & kFlag1) == 0)
          throw FrameUnsupported(
              "frame: conditional S deviation on a non-classical qubit");
        break;
      }
      case IKind::CondCnot: {
        const std::uint64_t cw = cond_word(ins.c);
        fx_[ins.b] ^= fx_[ins.a] & cw;
        fz_[ins.a] ^= fz_[ins.b] & cw;
        const std::uint64_t d =
            (cw ^ bcast((ins.flags & kFlag0) != 0)) & active_;
        if (d != 0) {
          if ((ins.flags & kFlag1) == 0)
            throw FrameUnsupported(
                "frame: conditional CNOT deviation with non-classical "
                "control");
          fx_[ins.b] ^= d & bcast((ins.flags & kFlag2) != 0);
        }
        break;
      }
      case IKind::CondCz: {
        const std::uint64_t cw = cond_word(ins.c);
        const std::uint64_t xa = fx_[ins.a];
        const std::uint64_t xb = fx_[ins.b];
        fz_[ins.a] ^= xb & cw;
        fz_[ins.b] ^= xa & cw;
        const std::uint64_t d =
            (cw ^ bcast((ins.flags & kFlag0) != 0)) & active_;
        if (d != 0) {
          if ((ins.flags & kFlag1) != 0)
            fz_[ins.b] ^= d & bcast((ins.flags & kFlag2) != 0);
          else if ((ins.flags & kFlag3) != 0)
            fz_[ins.a] ^= d & bcast((ins.flags & kFlag4) != 0);
          else
            throw FrameUnsupported(
                "frame: conditional CZ deviation with no classical qubit");
        }
        break;
      }
      case IKind::BeginGadget:
        clear_cbits(prog_.gadget_cbits_);
        break;
    }
  }
}

pauli::PauliString FrameBatch::lane_frame(unsigned l) const {
  EQC_EXPECTS(l < count_);
  pauli::PauliString p(n_);
  for (std::size_t q = 0; q < n_; ++q)
    p.set_bits(q, ((fx_[q] >> l) & 1) != 0, ((fz_[q] >> l) & 1) != 0);
  return p;
}

const std::vector<bool>& FrameBatch::lane_cbits(unsigned l) const {
  EQC_EXPECTS(l < count_);
  unpack_cbits();
  return lane_cbits_[l];
}

std::uint64_t FrameBatch::cbits_word(std::uint32_t slot) const {
  return cwords_.at(slot);
}

const Rng& FrameBatch::lane_backend_rng(unsigned l) const {
  EQC_EXPECTS(l < count_);
  // Planted trials share the reference backend stream; after the run every
  // lane's rng sits at the reference's post-run state.
  if (planted_mode_) return prog_.ref_rng_after_;
  return backend_rng(l);
}

}  // namespace eqc::frame
