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

pauli::PauliString to_pauli(const SiteError& e, const circuit::FaultSite& site,
                            std::size_t num_qubits) {
  pauli::PauliString err(num_qubits);
  for (std::size_t i = 0; i < site.arity; ++i)
    err.set_bits(site.q[i], ((e.x >> i) & 1) != 0, ((e.z >> i) & 1) != 0);
  return err;
}

pauli::PauliString sample_error(Channel channel, const circuit::FaultSite& site,
                                std::size_t num_qubits, Rng& rng,
                                double z_bias) {
  return to_pauli(sample_site_error(channel, site.arity, rng, z_bias), site,
                  num_qubits);
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
  backend.apply_pauli(to_pauli(sampler_.sample(site.arity, rng_), site,
                               backend.num_qubits()));
  ++errors_;
}

}  // namespace eqc::noise
