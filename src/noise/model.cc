#include "noise/model.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace eqc::noise {

const char* channel_name(Channel channel) {
  switch (channel) {
    case Channel::Depolarizing: return "depolarizing";
    case Channel::BitFlip: return "bit_flip";
    case Channel::PhaseFlip: return "phase_flip";
    case Channel::SingleQubitPauli: return "single_qubit_pauli";
    case Channel::BiasedZ: return "biased_z";
  }
  return "unknown";
}

double NoiseModel::probability_for(circuit::FaultSite::Kind kind) const {
  using Kind = circuit::FaultSite::Kind;
  switch (kind) {
    case Kind::Input: return p * input_scale;
    case Kind::PrepOutput: return p * prep_scale;
    case Kind::GateOutput: return p * gate_scale;
    case Kind::MeasureInput: return p * measure_scale;
    case Kind::Idle: return p * idle_scale;
  }
  return 0.0;
}

SiteError sample_site_error(Channel channel, std::size_t k, Rng& rng,
                            double z_bias) {
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
      const std::uint64_t idx = 1 + rng.below((std::uint64_t{1} << (2 * k)) - 1);
      for (std::size_t i = 0; i < k; ++i)
        put(i, static_cast<pauli::Pauli>((idx >> (2 * i)) & 3));
      break;
    }
    case Channel::BitFlip:
      e.x = static_cast<std::uint8_t>(1 + rng.below((std::uint64_t{1} << k) - 1));
      break;
    case Channel::PhaseFlip:
      e.z = static_cast<std::uint8_t>(1 + rng.below((std::uint64_t{1} << k) - 1));
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

pauli::PauliString to_pauli(const SiteError& e,
                            const std::vector<std::uint32_t>& site_qubits,
                            std::size_t num_qubits) {
  pauli::PauliString err(num_qubits);
  for (std::size_t i = 0; i < site_qubits.size(); ++i)
    err.set_bits(site_qubits[i], ((e.x >> i) & 1) != 0, ((e.z >> i) & 1) != 0);
  return err;
}

pauli::PauliString sample_error(Channel channel,
                                const std::vector<std::uint32_t>& site_qubits,
                                std::size_t num_qubits, Rng& rng,
                                double z_bias) {
  EQC_EXPECTS(!site_qubits.empty() && site_qubits.size() <= 3);
  return to_pauli(sample_site_error(channel, site_qubits.size(), rng, z_bias),
                  site_qubits, num_qubits);
}

GapSampler::GapSampler(const NoiseModel& model)
    : channel_(model.channel), z_bias_(model.z_bias) {
  double p_kind[5];
  for (int k = 0; k < 5; ++k) {
    const double p =
        model.probability_for(static_cast<circuit::FaultSite::Kind>(k));
    EQC_EXPECTS(!std::isnan(p));
    p_kind[k] = std::clamp(p, 0.0, 1.0);
    p_max_ = std::max(p_max_, p_kind[k]);
  }
  for (int k = 0; k < 5; ++k)
    accept_[k] = p_max_ > 0.0 ? p_kind[k] / p_max_ : 0.0;
  log_q_ = std::log1p(-p_max_);
}

std::uint64_t GapSampler::gap(Rng& rng) const {
  if (p_max_ <= 0.0) return UINT64_MAX;
  if (p_max_ >= 1.0) return 0;
  const double g = std::floor(std::log(1.0 - rng.uniform()) / log_q_);
  // 0x1p63: beyond every site count; also catches +inf from p_max underflow.
  return g < 0x1p63 ? static_cast<std::uint64_t>(g) : UINT64_MAX;
}

void StochasticInjector::visit(const circuit::FaultSite& site,
                               circuit::Backend& backend) {
  if (!gap_drawn_) {
    countdown_ = sampler_.gap(rng_);
    gap_drawn_ = true;
  }
  if (countdown_ > 0) {
    --countdown_;
    return;
  }
  gap_drawn_ = false;
  if (!sampler_.accept(site.kind, rng_)) return;
  backend.apply_pauli(to_pauli(sampler_.sample(site.qubits.size(), rng_),
                               site.qubits, backend.num_qubits()));
  ++errors_;
}

}  // namespace eqc::noise
