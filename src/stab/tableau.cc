#include "stab/tableau.h"

#include <array>
#include <bit>

#include "common/assert.h"

namespace eqc::stab {

namespace {

// Word-parallel accumulation of the Aaronson-Gottesman phase function
// g(P1, P2) summed over 64 qubits at once: returns (#+1 qubits) - (#-1).
// Case analysis per qubit (P1 from (x1,z1), P2 from (x2,z2)):
//   P1 = Y: g = z2 - x2;  P1 = X: g = z2(2x2-1);  P1 = Z: g = x2(1-2z2).
inline int phase_g_word(std::uint64_t x1, std::uint64_t z1, std::uint64_t x2,
                        std::uint64_t z2) {
  const std::uint64_t c11 = x1 & z1;
  const std::uint64_t c10 = x1 & ~z1;
  const std::uint64_t c01 = ~x1 & z1;
  const std::uint64_t plus =
      (c11 & z2 & ~x2) | (c10 & z2 & x2) | (c01 & x2 & ~z2);
  const std::uint64_t minus =
      (c11 & x2 & ~z2) | (c10 & z2 & ~x2) | (c01 & x2 & z2);
  return std::popcount(plus) - std::popcount(minus);
}

// Two zeroed accumulator rows of `w` words each: on the stack up to 8 words
// (512 qubits), on the heap past that.
class RowAcc {
 public:
  explicit RowAcc(std::size_t w) : w_(w) {
    if (w > kStackWords) heap_.assign(2 * w, 0);
  }
  std::uint64_t* x() { return heap_.empty() ? stack_.data() : heap_.data(); }
  std::uint64_t* z() { return x() + w_; }

 private:
  static constexpr std::size_t kStackWords = 8;
  std::size_t w_;
  std::array<std::uint64_t, 2 * kStackWords> stack_{};
  std::vector<std::uint64_t> heap_;
};

}  // namespace

Tableau::Tableau(std::size_t num_qubits) : n_(num_qubits) {
  EQC_EXPECTS(num_qubits > 0);
  const std::size_t rows = 2 * n_ + 1;
  x_.assign(rows, std::vector<std::uint64_t>(words(), 0));
  z_.assign(rows, std::vector<std::uint64_t>(words(), 0));
  r_.assign(rows, 0);
  for (std::size_t i = 0; i < n_; ++i) {
    set_xbit(i, i, true);        // destabilizer i = X_i
    set_zbit(n_ + i, i, true);   // stabilizer i = Z_i
  }
}

bool Tableau::xbit(std::size_t row, std::size_t q) const {
  return (x_[row][q >> 6] >> (q & 63)) & 1;
}
bool Tableau::zbit(std::size_t row, std::size_t q) const {
  return (z_[row][q >> 6] >> (q & 63)) & 1;
}
void Tableau::set_xbit(std::size_t row, std::size_t q, bool v) {
  if (v)
    x_[row][q >> 6] |= std::uint64_t{1} << (q & 63);
  else
    x_[row][q >> 6] &= ~(std::uint64_t{1} << (q & 63));
}
void Tableau::set_zbit(std::size_t row, std::size_t q, bool v) {
  if (v)
    z_[row][q >> 6] |= std::uint64_t{1} << (q & 63);
  else
    z_[row][q >> 6] &= ~(std::uint64_t{1} << (q & 63));
}

// Gates update each row with a few word operations on the words that hold
// their qubits; the sign rules are CHP's (Aaronson-Gottesman Sec. 3).

template <class F>
void Tableau::for_each_row(F f) {
  // Sign bytes may alias anything, so keep the row arrays and the bound in
  // locals rather than re-reading the members after every sign update.
  std::vector<std::uint64_t>* xs = x_.data();
  std::vector<std::uint64_t>* zs = z_.data();
  std::uint8_t* r = r_.data();
  for (std::size_t row = 0, rows = 2 * n_; row < rows; ++row)
    f(xs[row].data(), zs[row].data(), r[row]);
}

void Tableau::h(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::size_t w = q >> 6;
  const std::uint64_t m = std::uint64_t{1} << (q & 63);
  for_each_row([=](std::uint64_t* x, std::uint64_t* z, std::uint8_t& r) {
    const std::uint64_t flip = (x[w] ^ z[w]) & m;  // swap x and z at q
    r ^= static_cast<std::uint8_t>((x[w] & z[w] & m) != 0);
    x[w] ^= flip;
    z[w] ^= flip;
  });
}

void Tableau::s(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::size_t w = q >> 6;
  const std::uint64_t m = std::uint64_t{1} << (q & 63);
  for_each_row([=](std::uint64_t* x, std::uint64_t* z, std::uint8_t& r) {
    const std::uint64_t xq = x[w] & m;
    r ^= static_cast<std::uint8_t>((xq & z[w]) != 0);
    z[w] ^= xq;
  });
}

void Tableau::sdg(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::size_t w = q >> 6;
  const std::uint64_t m = std::uint64_t{1} << (q & 63);
  for_each_row([=](std::uint64_t* x, std::uint64_t* z, std::uint8_t& r) {
    const std::uint64_t xq = x[w] & m;
    r ^= static_cast<std::uint8_t>((xq & ~z[w]) != 0);
    z[w] ^= xq;
  });
}

void Tableau::x(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::size_t w = q >> 6;
  const unsigned sh = q & 63;
  for_each_row([=](std::uint64_t*, std::uint64_t* z, std::uint8_t& r) {
    r ^= static_cast<std::uint8_t>((z[w] >> sh) & 1);
  });
}

void Tableau::z(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::size_t w = q >> 6;
  const unsigned sh = q & 63;
  for_each_row([=](std::uint64_t* x, std::uint64_t*, std::uint8_t& r) {
    r ^= static_cast<std::uint8_t>((x[w] >> sh) & 1);
  });
}

void Tableau::y(std::size_t q) {
  EQC_EXPECTS(q < n_);
  const std::size_t w = q >> 6;
  const unsigned sh = q & 63;
  for_each_row([=](std::uint64_t* x, std::uint64_t* z, std::uint8_t& r) {
    r ^= static_cast<std::uint8_t>(((x[w] ^ z[w]) >> sh) & 1);
  });
}

void Tableau::cnot(std::size_t control, std::size_t target) {
  EQC_EXPECTS(control < n_ && target < n_ && control != target);
  const std::size_t wc = control >> 6, wt = target >> 6;
  const unsigned sc = control & 63, st = target & 63;
  for_each_row([=](std::uint64_t* x, std::uint64_t* z, std::uint8_t& r) {
    const std::uint64_t xc = (x[wc] >> sc) & 1, zc = (z[wc] >> sc) & 1;
    const std::uint64_t xt = (x[wt] >> st) & 1, zt = (z[wt] >> st) & 1;
    r ^= static_cast<std::uint8_t>(xc & zt & ~(xt ^ zc) & 1);
    x[wt] ^= xc << st;
    z[wc] ^= zt << sc;
  });
}

void Tableau::cz(std::size_t a, std::size_t b) {
  h(b);
  cnot(a, b);
  h(b);
}

void Tableau::swap(std::size_t a, std::size_t b) {
  EQC_EXPECTS(a < n_ && b < n_ && a != b);
  const std::size_t wa = a >> 6, wb = b >> 6;
  const unsigned sa = a & 63, sb = b & 63;
  for_each_row([=](std::uint64_t* x, std::uint64_t* z, std::uint8_t&) {
    const std::uint64_t dx = ((x[wa] >> sa) ^ (x[wb] >> sb)) & 1;
    const std::uint64_t dz = ((z[wa] >> sa) ^ (z[wb] >> sb)) & 1;
    x[wa] ^= dx << sa;
    x[wb] ^= dx << sb;
    z[wa] ^= dz << sa;
    z[wb] ^= dz << sb;
  });
}

void Tableau::apply_pauli(const pauli::PauliString& p) {
  EQC_EXPECTS(p.num_qubits() == n_);
  // Conjugating a stabilizer row R by Pauli P flips R's sign iff they
  // anticommute.
  for (std::size_t row = 0; row < 2 * n_; ++row) {
    int anti = 0;
    for (std::size_t q : p.support()) {
      const bool px = p.x_bit(q), pz = p.z_bit(q);
      const bool rx = xbit(row, q), rz = zbit(row, q);
      anti ^= static_cast<int>((px && rz) != (pz && rx));
    }
    r_[row] ^= static_cast<std::uint8_t>(anti);
  }
}

void Tableau::row_mult(std::size_t h, std::size_t i) {
  int total = 2 * r_[h] + 2 * r_[i];
  for (std::size_t w = 0; w < words(); ++w)
    total += phase_g_word(x_[i][w], z_[i][w], x_[h][w], z_[h][w]);
  total = ((total % 4) + 4) % 4;
  // Stabilizer rows and the scratch row always multiply to a Hermitian
  // (+-1) operator; destabilizer rows may pick up an i, but their phases
  // are meaningless and never observed (Aaronson-Gottesman).
  if (h >= n_) EQC_CHECK(total % 2 == 0);
  r_[h] = static_cast<std::uint8_t>(total / 2);
  for (std::size_t w = 0; w < words(); ++w) {
    x_[h][w] ^= x_[i][w];
    z_[h][w] ^= z_[i][w];
  }
}

void Tableau::row_copy(std::size_t dst, std::size_t src) {
  x_[dst] = x_[src];
  z_[dst] = z_[src];
  r_[dst] = r_[src];
}

void Tableau::row_clear(std::size_t row) {
  std::fill(x_[row].begin(), x_[row].end(), 0);
  std::fill(z_[row].begin(), z_[row].end(), 0);
  r_[row] = 0;
}

bool Tableau::measure(std::size_t q, Rng& rng) {
  EQC_EXPECTS(q < n_);
  // Look for a stabilizer generator that anticommutes with Z_q.
  std::size_t p = 0;
  bool random = false;
  for (std::size_t i = n_; i < 2 * n_; ++i) {
    if (xbit(i, q)) {
      p = i;
      random = true;
      break;
    }
  }

  if (random) {
    for (std::size_t i = 0; i < 2 * n_; ++i)
      if (i != p && xbit(i, q)) row_mult(i, p);
    row_copy(p - n_, p);
    row_clear(p);
    set_zbit(p, q, true);
    const bool outcome = rng.bernoulli(0.5);
    r_[p] = static_cast<std::uint8_t>(outcome);
    return outcome;
  }

  // Deterministic: accumulate the relevant stabilizers into the scratch row.
  const std::size_t scratch = 2 * n_;
  row_clear(scratch);
  for (std::size_t i = 0; i < n_; ++i)
    if (xbit(i, q)) row_mult(scratch, i + n_);
  return r_[scratch] != 0;
}

bool Tableau::is_deterministic_z(std::size_t q) const {
  EQC_EXPECTS(q < n_);
  for (std::size_t i = n_; i < 2 * n_; ++i)
    if (xbit(i, q)) return false;
  return true;
}

std::size_t Tableau::z_measure_pivot(std::size_t q) const {
  EQC_EXPECTS(q < n_);
  for (std::size_t i = n_; i < 2 * n_; ++i)
    if (xbit(i, q)) return i - n_;
  return n_;
}

bool Tableau::deterministic_z_value(std::size_t q) const {
  EQC_EXPECTS(is_deterministic_z(q));
  // Accumulate the product of the relevant stabilizer rows (no tableau
  // copy — this is a hot path for classical-control lowering during
  // compilation and fault enumeration).
  const std::size_t w = words();
  const std::size_t wq = q >> 6;
  const unsigned sq = q & 63;
  RowAcc acc(w);
  std::uint64_t* ax = acc.x();
  std::uint64_t* az = acc.z();
  int total = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (((x_[i][wq] >> sq) & 1) == 0) continue;
    const std::uint64_t* sx = x_[i + n_].data();
    const std::uint64_t* sz = z_[i + n_].data();
    int t = 2 * r_[i + n_];
    for (std::size_t k = 0; k < w; ++k) {
      t += phase_g_word(sx[k], sz[k], ax[k], az[k]);
      ax[k] ^= sx[k];
      az[k] ^= sz[k];
    }
    total = ((total + t) % 4 + 4) % 4;
  }
  EQC_CHECK(total % 2 == 0);
  return (total / 2) % 2 != 0;
}

double Tableau::expectation_z(std::size_t q) const {
  if (!is_deterministic_z(q)) return 0.0;
  return deterministic_z_value(q) ? -1.0 : 1.0;
}

void Tableau::reset(std::size_t q, Rng& rng) {
  if (measure(q, rng)) x(q);
}

bool Tableau::measure_pauli(const pauli::PauliString& p, Rng& rng) {
  EQC_EXPECTS(p.num_qubits() == n_);
  EQC_EXPECTS(p.is_hermitian());
  EQC_EXPECTS(!p.is_identity());

  // Random case: some stabilizer generator anticommutes with p.
  std::size_t pivot = 2 * n_ + 1;  // sentinel
  for (std::size_t i = n_; i < 2 * n_; ++i) {
    if (!row_to_pauli(i).commutes_with(p)) {
      pivot = i;
      break;
    }
  }
  if (pivot <= 2 * n_) {
    for (std::size_t i = 0; i < 2 * n_; ++i)
      if (i != pivot && !row_to_pauli(i).commutes_with(p)) row_mult(i, pivot);
    row_copy(pivot - n_, pivot);
    // Install (-1)^outcome * p as the new stabilizer generator.  The row
    // format stores Y at (x,z)=(1,1), so fold the i factors of p's literal
    // XZ representation into the sign.
    row_clear(pivot);
    int n_y = 0;
    for (std::size_t q = 0; q < n_; ++q) {
      set_xbit(pivot, q, p.x_bit(q));
      set_zbit(pivot, q, p.z_bit(q));
      if (p.x_bit(q) && p.z_bit(q)) ++n_y;
    }
    const int base = ((p.phase() + 3 * n_y) % 4 + 4) % 4;
    EQC_CHECK(base % 2 == 0);
    const bool outcome = rng.bernoulli(0.5);
    r_[pivot] = static_cast<std::uint8_t>((base / 2) ^ (outcome ? 1 : 0));
    return outcome;
  }

  // Deterministic: p (or -p) is in the stabilizer group.
  pauli::PauliString acc(n_);
  for (std::size_t i = 0; i < n_; ++i)
    if (!p.commutes_with(destabilizer(i))) acc.multiply_by(stabilizer(i));
  if (acc == p) return false;
  pauli::PauliString minus_p = p;
  minus_p.set_phase(p.phase() + 2);
  EQC_CHECK(acc == minus_p);
  return true;
}

double Tableau::expectation_pauli(const pauli::PauliString& p) const {
  EQC_EXPECTS(p.num_qubits() == n_);
  return stabilizer_sign(p);
}

int Tableau::stabilizer_sign(const pauli::PauliString& p) const {
  if (!p.is_hermitian()) return 0;
  const std::size_t w = words();
  const std::uint64_t* px = p.x_words().data();
  const std::uint64_t* pz = p.z_words().data();
  auto anticommutes = [&](std::size_t row) {
    std::uint64_t acc = 0;
    for (std::size_t k = 0; k < w; ++k)
      acc ^= (px[k] & z_[row][k]) ^ (pz[k] & x_[row][k]);
    return (std::popcount(acc) & 1) != 0;
  };
  // p must commute with every stabilizer generator.
  for (std::size_t i = n_; i < 2 * n_; ++i)
    if (anticommutes(i)) return 0;
  // Express p in the stabilizer basis: the product over stabilizers s_i for
  // which p anticommutes with destabilizer d_i, with the phase kept in
  // PauliString's convention (a row's Y counts as i XZ) so it compares
  // directly with p.phase().
  RowAcc acc(w);
  std::uint64_t* ax = acc.x();
  std::uint64_t* az = acc.z();
  int phase = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    if (!anticommutes(i)) continue;
    const std::uint64_t* sx = x_[i + n_].data();
    const std::uint64_t* sz = z_[i + n_].data();
    int flips = 0;  // (X^x1 Z^z1)(X^x2 Z^z2) = (-1)^(z1.x2) ...
    int ys = 0;
    for (std::size_t k = 0; k < w; ++k) {
      flips += std::popcount(az[k] & sx[k]);
      ys += std::popcount(sx[k] & sz[k]);
      ax[k] ^= sx[k];
      az[k] ^= sz[k];
    }
    phase += 2 * r_[i + n_] + ys + 2 * (flips & 1);
  }
  for (std::size_t k = 0; k < w; ++k)
    if (ax[k] != px[k] || az[k] != pz[k]) return 0;
  phase &= 3;
  if (phase == p.phase()) return 1;
  if (phase == (p.phase() + 2) % 4) return -1;
  return 0;
}

pauli::PauliString Tableau::row_to_pauli(std::size_t row) const {
  pauli::PauliString p(n_);
  for (std::size_t q = 0; q < n_; ++q) {
    const bool x = xbit(row, q);
    const bool z = zbit(row, q);
    if (x && z)
      p.set(q, pauli::Pauli::Y);
    else if (x)
      p.set(q, pauli::Pauli::X);
    else if (z)
      p.set(q, pauli::Pauli::Z);
  }
  if (r_[row]) p.set_phase(p.phase() + 2);
  return p;
}

pauli::PauliString Tableau::stabilizer(std::size_t i) const {
  EQC_EXPECTS(i < n_);
  return row_to_pauli(n_ + i);
}

pauli::PauliString Tableau::destabilizer(std::size_t i) const {
  EQC_EXPECTS(i < n_);
  return row_to_pauli(i);
}

bool Tableau::state_is_stabilized_by(const pauli::PauliString& p) const {
  EQC_EXPECTS(p.num_qubits() == n_);
  return stabilizer_sign(p) == 1;
}

void Tableau::check_invariants() const {
  for (std::size_t i = 0; i < n_; ++i) {
    const auto si = stabilizer(i);
    const auto di = destabilizer(i);
    EQC_CHECK(!si.commutes_with(di));
    for (std::size_t j = 0; j < n_; ++j) {
      if (j == i) continue;
      EQC_CHECK(si.commutes_with(stabilizer(j)));
      EQC_CHECK(si.commutes_with(destabilizer(j)));
      EQC_CHECK(di.commutes_with(destabilizer(j)));
    }
  }
}

}  // namespace eqc::stab
