// Stochastic error models.
//
// The paper analyzes the standard independent stochastic model: "For a
// probability p of an error (per gate, per input bit, and per delay line)".
// NoiseModel assigns an error probability to every fault site the executor
// visits; GapSampler decides which sites fire and samples a uniformly
// random error from the chosen channel at each, and StochasticInjector
// applies its draws online during execution.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/execute.h"
#include "common/rng.h"

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
/// site of `k` qubits.  `z_bias` only affects Channel::BiasedZ.
SiteError sample_site_error(Channel channel, std::size_t k, Rng& rng,
                            double z_bias = 0.9);

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
class GapSampler {
 public:
  explicit GapSampler(const NoiseModel& model);

  /// Sites to skip before the next candidate: 0 with no draw when
  /// p_max >= 1, UINT64_MAX with no draw when p_max == 0.
  std::uint64_t gap(Rng& rng) const;
  /// Thinning of a candidate of this kind.
  bool accept(circuit::FaultSite::Kind kind, Rng& rng) const {
    return rng.bernoulli(accept_[static_cast<int>(kind)]);
  }
  SiteError sample(std::size_t k, Rng& rng) const {
    return sample_site_error(channel_, k, rng, z_bias_);
  }

  /// Walks `sites` (indexable, elements with `.kind` and `.qubits`) in
  /// order, calling emit(index, SiteError) for every faulty site.
  template <typename Sites, typename Emit>
  void for_each_fault(const Sites& sites, Rng& rng, Emit&& emit) const {
    const std::uint64_t n = sites.size();
    std::uint64_t i = gap(rng);
    while (i < n) {
      const auto& site = sites[static_cast<std::size_t>(i)];
      if (accept(site.kind, rng))
        emit(static_cast<std::size_t>(i), sample(site.qubits.size(), rng));
      const std::uint64_t g = gap(rng);
      if (g >= n - i - 1) break;
      i += g + 1;
    }
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
