// E4 — Figure 4: the measurement-free fault-tolerant Toffoli.
//
// Reproduced claims:
//  (a) the construction equals Toffoli exactly at the logical level (all 8
//      basis inputs, superpositions, and the tensor-product structure of
//      the outputs), with deferred measurements and classically controlled
//      corrections including the classical Toffoli M12 = M1 AND M2 that
//      resolves the paper's catch-22;
//  (b) the full-code circuit (6 Steane blocks + the Fig. 2 |AND>
//      preparation + three N gates) is too large to simulate exactly
//      (42+ data qubits), so its fault tolerance is assessed by the
//      conservative error-propagation analyzer: transversality of every
//      coupling layer, and a pair-count bound on the p^2 coefficient —
//      with the N-gate/majority interiors excluded because their benignity
//      is proven exhaustively in E1;
//  (c) a resource inventory of the full-code construction.
#include <cmath>
#include <cstdio>

#include "analysis/support_prop.h"
#include "bench_util.h"
#include "circuit/execute.h"
#include "circuit/schedule.h"
#include "circuit/sv_backend.h"
#include "ftqc/ft_toffoli.h"
#include "ftqc/layout.h"

using namespace eqc;

namespace {

struct BareRunner {
  ftqc::Layout layout;
  ftqc::BareToffoliRegs r;

  BareRunner() {
    r.a = layout.bit(); r.b = layout.bit(); r.c = layout.bit();
    r.x = layout.bit(); r.y = layout.bit(); r.z = layout.bit();
    r.m1 = layout.bit(); r.m2 = layout.bit(); r.m3 = layout.bit();
    r.m12 = layout.bit();
  }
};

}  // namespace

int main(int argc, char** argv) {
  bench::Reporter rep("fig4_toffoli", argc, argv);
  bench::banner("E4 / Figure 4: measurement-free FT Toffoli");
  int failures = 0;

  bench::section("(a) exact logical action (basis inputs)");
  {
    bool all_ok = true;
    for (unsigned in = 0; in < 8; ++in) {
      BareRunner br;
      circuit::Circuit c(br.layout.total());
      if (in & 1) c.x(br.r.x);
      if (in & 2) c.x(br.r.y);
      if (in & 4) c.x(br.r.z);
      ftqc::append_bare_and_state(c, br.r.a, br.r.b, br.r.c);
      ftqc::append_bare_toffoli_gadget(c, br.r);
      circuit::SvBackend b(br.layout.total(), Rng(2));
      circuit::execute(c, b);
      const bool x = in & 1, y = (in >> 1) & 1, z = (in >> 2) & 1;
      all_ok = all_ok && std::abs(b.state().prob_one(br.r.a) - x) < 1e-9 &&
               std::abs(b.state().prob_one(br.r.b) - y) < 1e-9 &&
               std::abs(b.state().prob_one(br.r.c) - (z != (x && y))) < 1e-9;
    }
    failures += bench::verdict(all_ok, "all 8 basis inputs correct");
  }

  bench::section("(a') superposition + tensor-product structure");
  {
    BareRunner br;
    circuit::Circuit c(br.layout.total());
    c.h(br.r.x);
    c.x(br.r.y);
    ftqc::append_bare_and_state(c, br.r.a, br.r.b, br.r.c);
    ftqc::append_bare_toffoli_gadget(c, br.r);
    circuit::SvBackend b(br.layout.total(), Rng(2));
    circuit::execute(c, b);
    const double inv = 1.0 / std::sqrt(2.0);
    std::vector<cplx> want(8, cplx{0, 0});
    want[0b010] = inv;
    want[0b111] = inv;
    const double f =
        b.state().subsystem_fidelity({br.r.a, br.r.b, br.r.c}, want);
    std::printf("  |+>|1>|0> -> (|010>+|111>)/sqrt2 on (a,b,c): fidelity "
                "%.12f\n",
                f);
    failures += bench::verdict(f > 1.0 - 1e-9,
                               "outputs factor from all junk registers");
  }

  // --- Build the full-code circuit once for (b) and (c). -------------------
  ftqc::Layout layout;
  ftqc::CodedToffoliRegs regs;
  regs.a = layout.block(codes::steane_code());
  regs.b = layout.block(codes::steane_code());
  regs.c = layout.block(codes::steane_code());
  regs.x = layout.block(codes::steane_code());
  regs.y = layout.block(codes::steane_code());
  regs.z = layout.block(codes::steane_code());
  regs.ss_anc = ftqc::allocate_special_state_ancillas(layout, 7, 3);
  regs.ss_anc.verify = layout.reg(6);
  regs.n_anc = ftqc::allocate_ngate_ancillas(layout, codes::steane_code(), 3);
  regs.m1 = layout.reg(7);
  regs.m2 = layout.reg(7);
  regs.m3 = layout.reg(7);
  regs.m12 = layout.reg(7);
  circuit::Circuit coded(layout.total());
  ftqc::append_coded_toffoli(coded, codes::steane_code(), regs);

  bench::section("(c) full-code resource inventory");
  {
    const auto sched = circuit::schedule(coded);
    const auto sites = circuit::enumerate_fault_sites(coded);
    std::size_t ccx_count = 0, ccz_count = 0, two_q = 0;
    for (const auto& op : coded.ops()) {
      if (op.kind == circuit::OpKind::CCX) ++ccx_count;
      if (op.kind == circuit::OpKind::CCZ) ++ccz_count;
      if (circuit::arity(op.kind) == 2) ++two_q;
    }
    std::printf("  qubits %zu | gates %zu (2q %zu, CCX %zu, CCZ %zu) | "
                "depth %zu | fault sites %zu\n",
                layout.total(), coded.size(), two_q, ccx_count, ccz_count,
                sched.depth(), sites.size());
    rep.metric("coded_qubits", json::Value(layout.total()));
    rep.metric("coded_gates", json::Value(coded.size()));
    rep.metric("coded_depth", json::Value(sched.depth()));
    rep.metric("coded_fault_sites", json::Value(sites.size()));
  }

  bench::section("(b) transversality audit of the full-code circuit");
  {
    // The paper's sufficient FT condition: interaction gates act bit-wise /
    // transversally — no multi-qubit gate may touch two qubits of the same
    // encoded block while also reaching outside it (intra-block gates are
    // confined to state preparation, where the hardened encoders and the
    // Fig. 2 machinery handle them).
    std::vector<std::pair<const char*, const codes::CodeBlock*>> blocks = {
        {"A", &regs.a}, {"B", &regs.b}, {"C", &regs.c},
        {"X", &regs.x}, {"Y", &regs.y}, {"Z", &regs.z}};
    auto block_of = [&](std::uint32_t q) -> int {
      for (std::size_t i = 0; i < blocks.size(); ++i)
        for (auto bq : blocks[i].second->q)
          if (bq == q) return static_cast<int>(i);
      return -1;
    };
    std::size_t cross_violations = 0, intra_block = 0, interaction = 0;
    for (const auto& op : coded.ops()) {
      const int a = circuit::arity(op.kind);
      if (a < 2) continue;
      int counts[6] = {0, 0, 0, 0, 0, 0};
      bool outside = false;
      for (int k = 0; k < a; ++k) {
        const int b = block_of(op.q[k]);
        if (b >= 0)
          ++counts[b];
        else
          outside = true;
      }
      int max_in_one = 0;
      for (int c : counts) max_in_one = std::max(max_in_one, c);
      if (max_in_one == a)
        ++intra_block;  // all operands inside one block: encoder-style
      else if (max_in_one >= 2)
        ++cross_violations;  // touches 2 of a block AND something else
      else
        ++interaction;
    }
    std::printf("  multi-qubit gates: %zu transversal interactions, %zu "
                "intra-block (encoders), %zu cross violations\n",
                interaction, intra_block, cross_violations);
    failures += bench::verdict(cross_violations == 0,
                               "every interaction gate is bit-wise / "
                               "transversal (the paper's FT condition)");
  }

  bench::section("(b') support analysis of the correction layer");
  {
    // The deferred-measurement corrections in isolation: classical M
    // registers driving transversal gates on the three output blocks.
    // Even worst-case (X+Z) corruption at any single site must damage at
    // most one qubit per block; fault pairs bound the layer's p^2 term.
    ftqc::Layout cl;
    ftqc::CodedToffoliRegs cr;
    cr.a = cl.block(codes::steane_code());
    cr.b = cl.block(codes::steane_code());
    cr.c = cl.block(codes::steane_code());
    cr.m1 = cl.reg(7);
    cr.m2 = cl.reg(7);
    cr.m3 = cl.reg(7);
    cr.m12 = cl.reg(7);
    circuit::Circuit corr(cl.total());
    constexpr std::size_t kN = codes::Steane::kN;
    for (std::size_t i = 0; i < kN; ++i) corr.cz(cr.m3[i], cr.c.q[i]);
    for (std::size_t i = 0; i < kN; ++i)
      corr.ccz(cr.m3[i], cr.a.q[i], cr.b.q[i]);
    for (std::size_t i = 0; i < kN; ++i) corr.cnot(cr.m1[i], cr.a.q[i]);
    for (std::size_t i = 0; i < kN; ++i) corr.cnot(cr.m2[i], cr.b.q[i]);
    for (std::size_t i = 0; i < kN; ++i)
      corr.ccx(cr.m1[i], cr.b.q[i], cr.c.q[i]);
    for (std::size_t i = 0; i < kN; ++i)
      corr.ccx(cr.m2[i], cr.a.q[i], cr.c.q[i]);
    for (auto q : cr.m12) corr.prep_z(q);
    for (std::size_t i = 0; i < kN; ++i)
      corr.ccx(cr.m1[i], cr.m2[i], cr.m12[i]);
    for (std::size_t i = 0; i < kN; ++i) corr.cnot(cr.m12[i], cr.c.q[i]);

    std::vector<analysis::BlockSpec> blocks = {
        {"A", {cr.a.q.begin(), cr.a.q.end()}, false, 1},
        {"B", {cr.b.q.begin(), cr.b.q.end()}, false, 1},
        {"C", {cr.c.q.begin(), cr.c.q.end()}, false, 1},
    };
    std::vector<bool> classical(cl.total(), false);
    for (const auto* reg : {&cr.m1, &cr.m2, &cr.m3, &cr.m12})
      for (auto q : *reg) classical[q] = true;

    const auto report = analysis::analyze_supports(
        corr, blocks, classical, bench::scaled(40000));
    std::printf("  sites %zu | single-fault violations %zu | pairs %llu "
                "(%s) | malignant bound %.2f%%\n",
                report.num_sites, report.single_fault_violations,
                static_cast<unsigned long long>(report.pairs_tested),
                report.exhaustive ? "exhaustive" : "sampled",
                100.0 * report.malignant_fraction());
    std::printf("  correction layer: A <= %.1f, p* >= %.2e (conservative)\n",
                report.p_squared_coefficient(), report.pseudo_threshold());
    rep.metric("correction_p2_bound",
               json::Value(report.p_squared_coefficient()));
    rep.metric("correction_pseudo_threshold",
               json::Value(report.pseudo_threshold()));
    failures += bench::verdict(report.single_fault_violations == 0,
                               "no single correction-layer fault exceeds "
                               "any block's tolerance");
  }

  return rep.finish(failures);
}
