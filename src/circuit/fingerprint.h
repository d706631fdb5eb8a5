// Canonical 64-bit circuit fingerprint (FNV-1a over the op stream).
//
// Two circuits fingerprint equal iff they have the same width and emit the
// same ops in the same order with the same operands — the byte-identity
// notion used by the golden-equivalence contract (tests/test_golden_equiv):
// a generic gadget instantiated with (Steane, k = 1, paper noise) must
// fingerprint-match the pre-refactor hard-wired builder it replaced.
#pragma once

#include <cstdint>

#include "circuit/circuit.h"

namespace eqc::circuit {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;

/// Folds the low `bytes` bytes of `v`, least significant first, into the
/// FNV-1a hash `h`.
inline std::uint64_t fnv1a(std::uint64_t h, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ULL;
  }
  return h;
}

inline std::uint64_t fingerprint(const Circuit& c) {
  std::uint64_t h = fnv1a(kFnvOffset, c.num_qubits(), 8);
  for (const auto& op : c.ops()) {
    h = fnv1a(h, static_cast<std::uint64_t>(op.kind), 1);
    h = fnv1a(h, op.q[0], 4);
    h = fnv1a(h, op.q[1], 4);
    h = fnv1a(h, op.q[2], 4);
    h = fnv1a(h, op.carg, 4);
  }
  return h;
}

}  // namespace eqc::circuit
