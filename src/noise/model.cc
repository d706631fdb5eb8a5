#include "noise/model.h"

#include <algorithm>
#include <cmath>

#include "common/assert.h"

namespace eqc::noise {

const char* channel_name(Channel channel) {
  switch (channel) {
    case Channel::Depolarizing: return "depolarizing";
    case Channel::SingleQubitPauli: return "single_qubit_pauli";
    case Channel::BiasedZ: return "biased_z";
  }
  return "unknown";
}

pauli::PauliString to_pauli(const SiteError& e, const circuit::FaultSite& site,
                            std::size_t num_qubits) {
  pauli::PauliString err(num_qubits);
  for (std::size_t i = 0; i < site.arity; ++i)
    err.set_bits(site.q[i], ((e.x >> i) & 1) != 0, ((e.z >> i) & 1) != 0);
  return err;
}

GapSampler::GapSampler(const NoiseModel& model)
    : channel_(model.channel), z_bias_(model.z_bias) {
  EQC_EXPECTS(!std::isnan(model.p));
  p_ = std::clamp(model.p, 0.0, 1.0);
  log_q_ = std::log1p(-p_);
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
  backend.apply_pauli(to_pauli(sampler_.sample(site.arity, rng_), site,
                               backend.num_qubits()));
  ++errors_;
}

}  // namespace eqc::noise
