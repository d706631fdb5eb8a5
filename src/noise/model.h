// Stochastic error models.
//
// The paper analyzes the standard independent stochastic model: "For a
// probability p of an error (per gate, per input bit, and per delay line)".
// NoiseModel assigns an error probability to every fault site the executor
// visits; GapSampler decides which sites fire and samples a uniformly
// random error from the chosen channel at each, and StochasticInjector
// applies its draws online during execution.
#pragma once

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/execute.h"
#include "common/assert.h"
#include "common/rng.h"
#include "pauli/pauli_string.h"

namespace eqc::noise {

/// Revision of the way a NoiseModel's randomness is consumed from a trial's
/// injection stream.  Every checkpoint and report fingerprint that depends
/// on sampled faults records it, so state written under another revision is
/// refused instead of mixed in.
///   1: one bernoulli(p) draw per fault site (retired).
///   2: geometric gap sampling at p_max with per-kind thinning (GapSampler).
inline constexpr std::uint64_t kStreamRevision = 2;

enum class Channel {
  Depolarizing,  ///< uniform over the 4^k - 1 non-identity Paulis on the site
  BitFlip,       ///< uniform over the 2^k - 1 non-trivial X patterns
  PhaseFlip,     ///< uniform over the 2^k - 1 non-trivial Z patterns
  /// One uniformly chosen qubit of the site gets one uniform Pauli — the
  /// paper's "probability p of an error per gate, per input bit, and per
  /// delay line" model, with no correlated multi-qubit errors.
  SingleQubitPauli,
  /// One uniformly chosen qubit of the site gets a Z with probability
  /// `z_bias`, else a uniform X/Y — a dephasing-dominated ensemble (NMR)
  /// variant of the paper model.  Still single-qubit, no correlations.
  BiasedZ,
};

/// Stable lower-case name ("depolarizing", "biased_z", ...), for
/// fingerprints and reports.
const char* channel_name(Channel channel);

struct NoiseModel {
  double p = 0.0;
  Channel channel = Channel::Depolarizing;
  /// Probability that a BiasedZ error is a Z (the rest splits evenly
  /// between X and Y).  Ignored by the other channels.
  double z_bias = 0.9;
  // Relative strength per site kind (0 disables that class of faults).
  double input_scale = 1.0;
  double prep_scale = 1.0;
  double gate_scale = 1.0;
  double measure_scale = 1.0;
  double idle_scale = 1.0;

  double probability_for(circuit::FaultSite::Kind kind) const;

  static NoiseModel depolarizing(double p) { return NoiseModel{.p = p}; }
  static NoiseModel bit_flip(double p) {
    return NoiseModel{.p = p, .channel = Channel::BitFlip};
  }
  static NoiseModel phase_flip(double p) {
    return NoiseModel{.p = p, .channel = Channel::PhaseFlip};
  }
  /// The paper's per-location single-qubit error model.
  static NoiseModel paper_model(double p) {
    return NoiseModel{.p = p, .channel = Channel::SingleQubitPauli};
  }
  /// Dephasing-dominated single-qubit model: Z with probability `z_bias`.
  static NoiseModel biased_z(double p, double z_bias = 0.9) {
    return NoiseModel{.p = p, .channel = Channel::BiasedZ, .z_bias = z_bias};
  }
};

/// An error on one fault site, site-local: bit i of `x` / `z` is the X / Z
/// component on the site's i-th qubit (sites touch at most 3 qubits).
struct SiteError {
  std::uint8_t x = 0;
  std::uint8_t z = 0;
};

/// Samples a uniformly random non-identity error of the channel's type on a
/// site of `k` qubits.  `z_bias` only affects Channel::BiasedZ.  Inline:
/// it runs once per sampled fault, and the constant bounds of its below()
/// draws fold at compile time.
inline SiteError sample_site_error(Channel channel, std::size_t k, Rng& rng,
                                   double z_bias = 0.9) {
  EQC_EXPECTS(k >= 1 && k <= 3);
  SiteError e;
  auto put = [&e](std::size_t i, pauli::Pauli p) {
    const auto bit = static_cast<std::uint8_t>(1u << i);
    if (p == pauli::Pauli::X || p == pauli::Pauli::Y) e.x |= bit;
    if (p == pauli::Pauli::Z || p == pauli::Pauli::Y) e.z |= bit;
  };
  switch (channel) {
    case Channel::Depolarizing: {
      // Draw a non-zero index into {I,X,Y,Z}^k.
      const std::uint64_t idx =
          1 + rng.below((std::uint64_t{1} << (2 * k)) - 1);
      for (std::size_t i = 0; i < k; ++i)
        put(i, static_cast<pauli::Pauli>((idx >> (2 * i)) & 3));
      break;
    }
    case Channel::BitFlip:
      e.x = static_cast<std::uint8_t>(
          1 + rng.below((std::uint64_t{1} << k) - 1));
      break;
    case Channel::PhaseFlip:
      e.z = static_cast<std::uint8_t>(
          1 + rng.below((std::uint64_t{1} << k) - 1));
      break;
    case Channel::SingleQubitPauli: {
      const std::size_t i = rng.below(k);
      static constexpr pauli::Pauli kChoices[3] = {
          pauli::Pauli::X, pauli::Pauli::Y, pauli::Pauli::Z};
      put(i, kChoices[rng.below(3)]);
      break;
    }
    case Channel::BiasedZ: {
      const std::size_t i = rng.below(k);
      if (rng.bernoulli(z_bias))
        put(i, pauli::Pauli::Z);
      else
        put(i, rng.below(2) == 0 ? pauli::Pauli::X : pauli::Pauli::Y);
      break;
    }
  }
  return e;
}

/// `e` as an operator on the full `num_qubits`-wide register.
pauli::PauliString to_pauli(const SiteError& e,
                            const std::vector<std::uint32_t>& site_qubits,
                            std::size_t num_qubits);

/// Samples a uniformly random non-identity error of the channel's type over
/// `site_qubits`, as an operator on the full `num_qubits`-wide register.
/// `z_bias` only affects Channel::BiasedZ.
pauli::PauliString sample_error(Channel channel,
                                const std::vector<std::uint32_t>& site_qubits,
                                std::size_t num_qubits, Rng& rng,
                                double z_bias = 0.9);

/// The one fault sampler of stream revision 2: rare-error gap sampling
/// (Gidney, arXiv:2103.02202), so a trial costs draws per fault, not per
/// fault site.
///
/// Every site is a candidate with probability p_max (the largest per-kind
/// probability of the model); gap() draws how many sites to skip before
/// the next candidate, floor(log(1 - u) / log1p(-p_max)).  A candidate of
/// kind K is kept with probability p_K / p_max (thinning; no draw when
/// p_K == p_max, rejected with no draw when p_K == 0), and a kept site
/// draws its error.  Per trial stream the draw order is
///   gap, [accept], [error], gap, [accept], [error], ...
/// over the sites in visitation order — the same whether the sites are
/// walked online (StochasticInjector) or up front (for_each_fault), which
/// is what keeps the frame engine bit-exact against the per-trial driver.
///
/// Most walks at low p find no fault at all.  A walk over n sites is
/// fault-free exactly when its first gap is >= n, i.e. (up to rounding)
/// when 1 - u <= q^n with q = 1 - p_max.  clear_below(n) is that bound
/// shrunk by a relative 1e-6, far beyond every rounding error of the log
/// path (DESIGN.md section 13), so gap(rng, clear_below(n)) answers
/// "no fault" without a log for draws below it, and computes the exact
/// gap above it: same draws, same verdicts, fewer logs.
class GapSampler {
 public:
  explicit GapSampler(const NoiseModel& model);

  /// Sites to skip before the next candidate: 0 with no draw when
  /// p_max >= 1, UINT64_MAX with no draw when p_max == 0.
  std::uint64_t gap(Rng& rng) const { return gap(rng, 0.0); }

  /// gap(rng), except that a draw with 1 - u < `clear` returns UINT64_MAX
  /// without taking the log.  With clear = clear_below(n) the result is
  /// >= n exactly when gap(rng) would be.
  std::uint64_t gap(Rng& rng, double clear) const {
    if (p_max_ <= 0.0) return UINT64_MAX;
    if (p_max_ >= 1.0) return 0;
    return gap_at(rng.uniform(), clear);
  }

  /// The gap a uniform draw u yields (p_max strictly inside (0, 1)):
  /// floor(log(1 - u) / log1p(-p_max)), saturated at UINT64_MAX, or
  /// UINT64_MAX outright when 1 - u < clear.
  std::uint64_t gap_at(double u, double clear) const {
    const double v = 1.0 - u;  // exact for a 53-bit u
    if (v < clear) return UINT64_MAX;
    const double g = std::floor(std::log(v) / log_q_);
    // 0x1p63: beyond every site count; also catches +inf from p_max
    // underflow.
    return g < 0x1p63 ? static_cast<std::uint64_t>(g) : UINT64_MAX;
  }

  /// Threshold on 1 - u below which a walk over `n` sites draws no fault:
  /// q^n (1 - 1e-6), and 0 (never taken) when p_max is 0 or 1.
  double clear_below(std::uint64_t n) const {
    if (p_max_ <= 0.0 || p_max_ >= 1.0) return 0.0;
    return std::exp(static_cast<double>(n) * log_q_) * (1.0 - 1e-6);
  }

  /// Thinning of a candidate of this kind.
  bool accept(circuit::FaultSite::Kind kind, Rng& rng) const {
    return rng.bernoulli(accept_[static_cast<int>(kind)]);
  }
  SiteError sample(std::size_t k, Rng& rng) const {
    return sample_site_error(channel_, k, rng, z_bias_);
  }

  /// Walks `sites` (indexable, elements with `.kind` and either `.arity`
  /// or `.qubits`) in order, calling emit(index, SiteError) for every
  /// faulty site.  `clear` must be clear_below(sites.size()); callers
  /// walking many streams over one site list compute it once.
  template <typename Sites, typename Emit>
  void for_each_fault(const Sites& sites, double clear, Rng& rng,
                      Emit&& emit) const {
    const std::uint64_t n = sites.size();
    std::uint64_t i = gap(rng, clear);
    while (i < n) {
      const auto& site = sites[static_cast<std::size_t>(i)];
      if (accept(site.kind, rng)) {
        std::size_t arity;
        if constexpr (requires { site.arity; })
          arity = site.arity;
        else
          arity = site.qubits.size();
        emit(static_cast<std::size_t>(i), sample(arity, rng));
      }
      const std::uint64_t g = gap(rng);
      if (g >= n - i - 1) break;
      i += g + 1;
    }
  }

  /// for_each_fault over one stream, computing the threshold itself.
  template <typename Sites, typename Emit>
  void for_each_fault(const Sites& sites, Rng& rng, Emit&& emit) const {
    for_each_fault(sites, clear_below(sites.size()), rng,
                   std::forward<Emit>(emit));
  }

 private:
  Channel channel_;
  double z_bias_;
  double p_max_ = 0.0;
  double log_q_ = 0.0;  // log1p(-p_max)
  double accept_[5] = {0, 0, 0, 0, 0};
};

/// FaultInjector applying NoiseModel errors during execution: GapSampler
/// walked online, with a countdown to the next candidate site.
class StochasticInjector final : public circuit::FaultInjector {
 public:
  StochasticInjector(const NoiseModel& model, Rng rng)
      : sampler_(model), rng_(rng) {}

  void visit(const circuit::FaultSite& site,
             circuit::Backend& backend) override;

  /// Number of errors injected so far (diagnostics).
  std::size_t errors_injected() const { return errors_; }

 private:
  GapSampler sampler_;
  Rng rng_;
  std::uint64_t countdown_ = 0;  // sites left to skip (when gap_drawn_)
  bool gap_drawn_ = false;
  std::size_t errors_ = 0;
};

}  // namespace eqc::noise
