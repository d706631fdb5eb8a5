#include "codes/css_code.h"

#include <algorithm>
#include <bit>

#include "common/assert.h"

namespace eqc::codes {

Block CodeBlock::steane() const {
  EQC_EXPECTS(q.size() == Steane::kN);
  Block b;
  for (std::size_t i = 0; i < Steane::kN; ++i) b.q[i] = q[i];
  return b;
}

RmBlock CodeBlock::rm15() const {
  EQC_EXPECTS(q.size() == ReedMuller15::kN);
  RmBlock b;
  for (std::size_t i = 0; i < ReedMuller15::kN; ++i) b.q[i] = q[i];
  return b;
}

// --- classical decoding ------------------------------------------------------

unsigned CssCode::z_syndrome_of_word(unsigned word) const {
  unsigned s = 0;
  for (std::size_t row = 0; row < num_z_checks(); ++row)
    if (std::popcount(word & z_check_mask(row)) & 1) s |= 1u << row;
  return s;
}

unsigned CssCode::z_syndrome_of_x_error(std::size_t pos) const {
  EQC_EXPECTS(pos < n());
  return z_syndrome_of_word(1u << pos);
}

unsigned CssCode::x_syndrome_of_z_error(std::size_t pos) const {
  EQC_EXPECTS(pos < n());
  unsigned s = 0;
  for (std::size_t row = 0; row < num_x_checks(); ++row)
    if (x_check_mask(row) & (1u << pos)) s |= 1u << row;
  return s;
}

int CssCode::x_error_position(unsigned z_syndrome) const {
  if (z_syndrome == 0) return -1;
  for (std::size_t pos = 0; pos < n(); ++pos)
    if (z_syndrome_of_x_error(pos) == z_syndrome) return static_cast<int>(pos);
  return -1;
}

int CssCode::z_error_position(unsigned x_syndrome) const {
  if (x_syndrome == 0) return -1;
  for (std::size_t pos = 0; pos < n(); ++pos)
    if (x_syndrome_of_z_error(pos) == x_syndrome) return static_cast<int>(pos);
  return -1;
}

bool CssCode::decode_logical_bit(unsigned word) const {
  const int pos = x_error_position(z_syndrome_of_word(word));
  if (pos >= 0) word ^= 1u << pos;
  return std::popcount(word) & 1;
}

// --- transversal builders ----------------------------------------------------

void CssCode::append_logical_x(circuit::Circuit& c, const CodeBlock& b) const {
  EQC_EXPECTS(b.size() == n());
  for (auto q : b.q) c.x(q);
}

void CssCode::append_logical_z(circuit::Circuit& c, const CodeBlock& b) const {
  EQC_EXPECTS(b.size() == n());
  for (auto q : b.q) c.z(q);
}

void CssCode::append_logical_h(circuit::Circuit& c, const CodeBlock& b) const {
  EQC_EXPECTS(self_dual() && b.size() == n());
  for (auto q : b.q) c.h(q);
}

void CssCode::append_logical_s(circuit::Circuit& c, const CodeBlock& b) const {
  EQC_EXPECTS(has_transversal_s() && b.size() == n());
  for (auto q : b.q) c.sdg(q);
}

void CssCode::append_logical_sdg(circuit::Circuit& c,
                                 const CodeBlock& b) const {
  EQC_EXPECTS(has_transversal_s() && b.size() == n());
  for (auto q : b.q) c.s(q);
}

void CssCode::append_logical_t(circuit::Circuit& c, const CodeBlock& b) const {
  EQC_EXPECTS(has_transversal_t() && b.size() == n());
  for (auto q : b.q) c.tdg(q);
}

void CssCode::append_logical_tdg(circuit::Circuit& c,
                                 const CodeBlock& b) const {
  EQC_EXPECTS(has_transversal_t() && b.size() == n());
  for (auto q : b.q) c.t(q);
}

void CssCode::append_logical_cnot(circuit::Circuit& c,
                                  const CodeBlock& control,
                                  const CodeBlock& target) const {
  EQC_EXPECTS(control.size() == n() && target.size() == n());
  for (std::size_t i = 0; i < n(); ++i) c.cnot(control.q[i], target.q[i]);
}

void CssCode::append_logical_cz(circuit::Circuit& c, const CodeBlock& a,
                                const CodeBlock& b) const {
  EQC_EXPECTS(self_dual() && a.size() == n() && b.size() == n());
  for (std::size_t i = 0; i < n(); ++i) c.cz(a.q[i], b.q[i]);
}

// --- Pauli operators ---------------------------------------------------------

namespace {

pauli::PauliString masked(std::size_t total, const CodeBlock& b, unsigned mask,
                          pauli::Pauli label) {
  pauli::PauliString p(total);
  for (std::size_t i = 0; i < b.size(); ++i)
    if (mask & (1u << i)) p.set(b.q[i], label);
  return p;
}

}  // namespace

pauli::PauliString CssCode::z_stabilizer(std::size_t total, const CodeBlock& b,
                                         std::size_t row) const {
  EQC_EXPECTS(row < num_z_checks() && b.size() == n());
  return masked(total, b, z_check_mask(row), pauli::Pauli::Z);
}

pauli::PauliString CssCode::x_stabilizer(std::size_t total, const CodeBlock& b,
                                         std::size_t row) const {
  EQC_EXPECTS(row < num_x_checks() && b.size() == n());
  return masked(total, b, x_check_mask(row), pauli::Pauli::X);
}

pauli::PauliString CssCode::logical_x_op(std::size_t total,
                                         const CodeBlock& b) const {
  EQC_EXPECTS(b.size() == n());
  return masked(total, b, (1u << n()) - 1, pauli::Pauli::X);
}

pauli::PauliString CssCode::logical_z_op(std::size_t total,
                                         const CodeBlock& b) const {
  EQC_EXPECTS(b.size() == n());
  return masked(total, b, (1u << n()) - 1, pauli::Pauli::Z);
}

// --- tableau oracles ---------------------------------------------------------

unsigned CssCode::x_fix_for_z_syndrome(unsigned sz) const {
  EQC_EXPECTS(sz < x_fix_.size());
  return x_fix_[sz];
}

unsigned CssCode::z_fix_for_x_syndrome(unsigned sx) const {
  EQC_EXPECTS(sx < z_fix_.size());
  return z_fix_[sx];
}

void CssCode::perfect_correct(stab::Tableau& tab, const CodeBlock& b,
                              Rng& rng) const {
  const std::size_t total = tab.num_qubits();
  unsigned sz = 0;
  for (std::size_t row = 0; row < num_z_checks(); ++row)
    if (tab.measure_pauli(z_stabilizer(total, b, row), rng)) sz |= 1u << row;
  const unsigned fix_x = x_fix_for_z_syndrome(sz);
  if (fix_x != 0) {
    pauli::PauliString fix(total);
    for (std::size_t i = 0; i < n(); ++i)
      if (fix_x & (1u << i)) fix.set(b.q[i], pauli::Pauli::X);
    tab.apply_pauli(fix);
  }
  unsigned sx = 0;
  for (std::size_t row = 0; row < num_x_checks(); ++row)
    if (tab.measure_pauli(x_stabilizer(total, b, row), rng)) sx |= 1u << row;
  const unsigned fix_z = z_fix_for_x_syndrome(sx);
  if (fix_z != 0) {
    pauli::PauliString fix(total);
    for (std::size_t i = 0; i < n(); ++i)
      if (fix_z & (1u << i)) fix.set(b.q[i], pauli::Pauli::Z);
    tab.apply_pauli(fix);
  }
}

bool CssCode::block_in_codespace(const stab::Tableau& tab,
                                 const CodeBlock& b) const {
  const std::size_t total = tab.num_qubits();
  for (std::size_t row = 0; row < num_z_checks(); ++row)
    if (tab.expectation_pauli(z_stabilizer(total, b, row)) != 1.0)
      return false;
  for (std::size_t row = 0; row < num_x_checks(); ++row)
    if (tab.expectation_pauli(x_stabilizer(total, b, row)) != 1.0)
      return false;
  return true;
}

double CssCode::logical_z_expectation(const stab::Tableau& tab,
                                      const CodeBlock& b) const {
  return tab.expectation_pauli(logical_z_op(tab.num_qubits(), b));
}

// --- generic superposition encoder -------------------------------------------

void append_superposition_encoder(circuit::Circuit& c, const CodeBlock& b,
                                  std::vector<unsigned> masks) {
  // Row-reduce over GF(2): after elimination each surviving mask owns a
  // pivot column (its lowest set bit) that no other mask touches.
  std::vector<unsigned> rows;
  for (unsigned m : masks) {
    for (unsigned r : rows) {
      const unsigned pivot = r & ~(r - 1);  // lowest set bit of r
      if (m & pivot) m ^= r;
    }
    if (m == 0) continue;  // linearly dependent
    const unsigned pivot = m & ~(m - 1);
    for (unsigned& r : rows)
      if (r & pivot) r ^= m;
    rows.push_back(m);
  }
  for (unsigned r : rows) {
    const auto pivot =
        static_cast<std::size_t>(std::countr_zero(r));
    EQC_EXPECTS(pivot < b.size());
    c.h(b.q[pivot]);
  }
  for (unsigned r : rows) {
    const auto pivot = static_cast<std::size_t>(std::countr_zero(r));
    for (std::size_t i = 0; i < b.size(); ++i)
      if (i != pivot && (r & (1u << i))) c.cnot(b.q[pivot], b.q[i]);
  }
}

namespace {

// Inverts an m x m GF(2) matrix given as row bitmasks; empty on singular.
std::vector<unsigned> gf2_invert(std::vector<unsigned> rows) {
  const std::size_t m = rows.size();
  std::vector<unsigned> inv(m);
  for (std::size_t r = 0; r < m; ++r) inv[r] = 1u << r;
  for (std::size_t c = 0; c < m; ++c) {
    std::size_t piv = c;
    while (piv < m && !(rows[piv] & (1u << c))) ++piv;
    if (piv == m) return {};
    std::swap(rows[c], rows[piv]);
    std::swap(inv[c], inv[piv]);
    for (std::size_t r = 0; r < m; ++r)
      if (r != c && (rows[r] & (1u << c))) {
        rows[r] ^= rows[c];
        inv[r] ^= inv[c];
      }
  }
  return inv;
}

// Evaluates one pivot-set candidate: the m x m submatrix of H on `cols`
// must be invertible; returns its max-column-weight score (how many output
// positions one syndrome bit feeds), SIZE_MAX when singular.  z_cols[i] is
// column i of H (the Z-type syndrome of an X error on position i).
std::size_t pivot_score(const std::vector<unsigned>& z_cols, std::size_t m,
                        const std::vector<std::size_t>& cols,
                        std::vector<unsigned>* inv_out) {
  std::vector<unsigned> sub(m, 0);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t j = 0; j < m; ++j)
      if (z_cols[cols[j]] & (1u << r)) sub[r] |= 1u << j;
  auto inv = gf2_invert(std::move(sub));
  if (inv.empty()) return static_cast<std::size_t>(-1);
  // inv[j] bit r: position cols[j] is fed by syndrome bit r.  The column
  // weight over j of bit r is the fanout of syndrome bit r.
  std::size_t worst = 0;
  for (std::size_t r = 0; r < m; ++r) {
    std::size_t w = 0;
    for (std::size_t j = 0; j < m; ++j)
      if (inv[j] & (1u << r)) ++w;
    worst = std::max(worst, w);
  }
  if (inv_out != nullptr) *inv_out = std::move(inv);
  return worst;
}

// Exhaustive pivot-set search for the repair plan (see ZRepairPlan) of the
// Z-check matrix with columns z_cols and m rows.
ZRepairPlan search_z_repair_plan(const std::vector<unsigned>& z_cols,
                                 std::size_t m) {
  const std::size_t n = z_cols.size();
  EQC_EXPECTS(m <= 20 && n <= 32);

  ZRepairPlan plan;
  // One-hot completeness: do single-qubit syndromes cover every nonzero
  // syndrome?  (Perfect codes: 2^m - 1 positions with distinct syndromes.)
  std::vector<bool> seen(std::size_t{1} << m, false);
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned s = z_cols[i];
    if (s != 0 && !seen[s]) {
      seen[s] = true;
      ++distinct;
    }
  }
  if (distinct == (std::size_t{1} << m) - 1) {
    plan.single_qubit_complete = true;
    plan.max_bit_fanout = 2;  // a flipped bit moves the match by one hot
    return plan;
  }

  // Information-set solve f(s) = P^{-1} s over a pivot set P of m block
  // positions.  Exhaustive search over C(n, m) pivot sets (bounded) for
  // the one minimizing the per-syndrome-bit fanout; first-found greedy
  // pivots above the bound.
  std::vector<std::size_t> cols(m);
  for (std::size_t j = 0; j < m; ++j) cols[j] = j;
  std::vector<std::size_t> best_cols;
  std::vector<unsigned> best_inv;
  std::size_t best_score = static_cast<std::size_t>(-1);
  std::size_t budget = 200000;
  while (true) {
    std::vector<unsigned> inv;
    const std::size_t score = pivot_score(z_cols, m, cols, &inv);
    if (score < best_score) {
      best_score = score;
      best_cols = cols;
      best_inv = std::move(inv);
    }
    if (--budget == 0) break;
    // Next combination in lexicographic order.
    std::size_t j = m;
    while (j > 0 && cols[j - 1] == n - m + (j - 1)) --j;
    if (j == 0) break;
    ++cols[j - 1];
    for (std::size_t i = j; i < m; ++i) cols[i] = cols[i - 1] + 1;
  }
  EQC_CHECK(best_score != static_cast<std::size_t>(-1) &&
            "z_repair_plan: Z-check matrix is rank deficient");
  plan.positions = std::move(best_cols);
  plan.tags.assign(best_inv.begin(), best_inv.end());
  plan.max_bit_fanout = best_score;
  return plan;
}

// Min-weight error pattern for every syndrome of `rows` checks, where
// col[i] is the syndrome of an error on position i.  One pass over masks
// in increasing weight, Gosper order within a weight; the first mask that
// reaches a syndrome is its entry.
std::vector<unsigned> min_weight_table(const std::vector<unsigned>& col,
                                       std::size_t rows) {
  const std::size_t n = col.size();
  EQC_EXPECTS(n < 32 && rows <= 20);
  std::vector<unsigned> table(std::size_t{1} << rows, 0);
  std::size_t unfilled = table.size() - 1;  // syndrome 0 maps to mask 0
  for (std::size_t w = 1; w <= n && unfilled > 0; ++w) {
    std::uint32_t mask = (1u << w) - 1;
    while (mask < (1u << n) && unfilled > 0) {
      unsigned s = 0;
      for (std::uint32_t m = mask; m != 0; m &= m - 1)
        s ^= col[static_cast<std::size_t>(std::countr_zero(m))];
      if (s != 0 && table[s] == 0) {
        table[s] = mask;
        --unfilled;
      }
      const std::uint32_t c = mask & (~mask + 1);
      const std::uint32_t up = mask + c;
      mask = (((mask ^ up) >> 2) / c) | up;
    }
  }
  EQC_CHECK(unfilled == 0 &&
            "syndrome unreachable: check matrix rank deficient");
  return table;
}

}  // namespace

void CssCode::build_decode_tables() {
  std::vector<unsigned> z_cols(n()), x_cols(n());
  for (std::size_t i = 0; i < n(); ++i) {
    z_cols[i] = z_syndrome_of_x_error(i);
    x_cols[i] = x_syndrome_of_z_error(i);
  }
  x_fix_ = min_weight_table(z_cols, num_z_checks());
  z_fix_ = min_weight_table(x_cols, num_x_checks());
  repair_plan_ = search_z_repair_plan(z_cols, num_z_checks());
}

const ZRepairPlan& z_repair_plan(const CssCode& code) {
  return code.repair_plan_;
}

std::vector<unsigned> z_repair_even_pair_syndromes(const CssCode& code) {
  const ZRepairPlan& plan = z_repair_plan(code);
  std::vector<unsigned> out;
  const std::size_t mz = code.num_z_checks();
  for (std::size_t r = 0; r < mz; ++r) {
    std::vector<std::size_t> fanout;
    for (std::size_t j = 0; j < plan.tags.size(); ++j)
      if (plan.tags[j] & (1u << r)) fanout.push_back(plan.positions[j]);
    for (std::size_t a = 0; a < fanout.size(); ++a)
      for (std::size_t b = a + 1; b < fanout.size(); ++b)
        out.push_back(code.z_syndrome_of_word((1u << fanout[a]) |
                                              (1u << fanout[b])));
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- implementations ---------------------------------------------------------

namespace {

class SteaneCode final : public CssCode {
 public:
  SteaneCode() { build_decode_tables(); }

  std::string_view name() const override { return "steane"; }
  std::size_t n() const override { return Steane::kN; }
  int distance() const override { return Steane::kDistance; }

  std::size_t num_z_checks() const override { return 3; }
  unsigned z_check_mask(std::size_t row) const override {
    EQC_EXPECTS(row < 3);
    return Hamming74::kCheckMasks[row];
  }
  std::size_t num_x_checks() const override { return 3; }
  unsigned x_check_mask(std::size_t row) const override {
    EQC_EXPECTS(row < 3);
    return Hamming74::kCheckMasks[row];
  }

  bool self_dual() const override { return true; }
  bool has_transversal_s() const override { return true; }
  bool has_transversal_t() const override { return false; }

  void append_encode_zero(circuit::Circuit& c,
                          const CodeBlock& b) const override {
    Steane::append_encode_zero(c, b.steane());
  }
  void append_encode_plus(circuit::Circuit& c,
                          const CodeBlock& b) const override {
    Steane::append_encode_plus(c, b.steane());
  }
};

class Rm15Code final : public CssCode {
 public:
  Rm15Code() { build_decode_tables(); }

  std::string_view name() const override { return "rm15"; }
  std::size_t n() const override { return ReedMuller15::kN; }
  int distance() const override { return ReedMuller15::kDistance; }

  std::size_t num_z_checks() const override {
    return ReedMuller15::z_masks().size();
  }
  unsigned z_check_mask(std::size_t row) const override {
    return ReedMuller15::z_masks().at(row);
  }
  std::size_t num_x_checks() const override { return 4; }
  unsigned x_check_mask(std::size_t row) const override {
    return ReedMuller15::x_mask(static_cast<int>(row));
  }

  bool self_dual() const override { return false; }
  bool has_transversal_s() const override { return false; }
  bool has_transversal_t() const override { return true; }

  void append_encode_zero(circuit::Circuit& c,
                          const CodeBlock& b) const override {
    ReedMuller15::append_encode_zero(c, b.rm15());
  }
  void append_encode_plus(circuit::Circuit& c,
                          const CodeBlock& b) const override {
    // |+>_L = uniform superposition over span(x masks) union its coset by
    // the all-ones logical X support — one extra generator.
    std::vector<unsigned> masks;
    for (int j = 0; j < 4; ++j) masks.push_back(ReedMuller15::x_mask(j));
    masks.push_back((1u << 15) - 1);
    append_superposition_encoder(c, b, std::move(masks));
  }
};

}  // namespace

const CssCode& steane_code() {
  static const SteaneCode code;
  return code;
}

const CssCode& rm15_code() {
  static const Rm15Code code;
  return code;
}

const CssCode* find_code(std::string_view name) {
  if (name == steane_code().name()) return &steane_code();
  if (name == rm15_code().name()) return &rm15_code();
  return nullptr;
}

std::vector<std::string_view> known_code_names() {
  return {steane_code().name(), rm15_code().name()};
}

}  // namespace eqc::codes
