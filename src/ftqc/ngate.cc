#include "ftqc/ngate.h"

#include <vector>

#include "codes/classical_logic.h"
#include "common/assert.h"
#include "ftqc/layout.h"

namespace eqc::ftqc {

void append_n1(circuit::Circuit& circ, const codes::CssCode& code,
               const codes::CodeBlock& source, std::uint32_t target,
               std::span<const std::uint32_t> syndrome,
               std::span<const std::uint32_t> work, bool syndrome_check) {
  const std::size_t mz = code.num_z_checks();
  EQC_EXPECTS(source.size() == code.n());
  EQC_EXPECTS(!syndrome_check ||
              (syndrome.size() >= mz && work.size() + 1 >= mz));
  circ.prep_z(target);
  if (syndrome_check) {
    for (std::size_t row = 0; row < mz; ++row) circ.prep_z(syndrome[row]);
    for (std::size_t j = 0; j + 1 < mz; ++j) circ.prep_z(work[j]);
    // Classical Z-type parity checks of the quantum ancilla into the
    // syndrome bits.
    for (std::size_t row = 0; row < mz; ++row) {
      const unsigned mask = code.z_check_mask(row);
      for (std::size_t i = 0; i < code.n(); ++i)
        if (mask & (1u << i)) circ.cnot(source.q[i], syndrome[row]);
    }
  }
  // Parity of the whole block = logical Z value (corrected below).
  for (std::size_t i = 0; i < code.n(); ++i) circ.cnot(source.q[i], target);
  if (syndrome_check) {
    // b ^= parity(min_weight_error(s)): pre-existing bit errors flip the
    // block parity by their weight, and the parity of the error class the
    // syndrome decodes to cancels that flip.  OR(s) computes exactly that
    // for every ODD-weight correctable error — all single-qubit errors
    // and weight-3 bursts — and no LINEAR compensation can do better on a
    // non-perfect code (it would need the all-ones word in H_z's row
    // space, impossible when the logical coset of ker H_z has odd-weight
    // elements, as for RM15).  The only EVEN-weight errors a single fault
    // can leave on the source block are weight-2 pairs inside one burst-
    // repair register bit's fanout set (codes::z_repair_plan); on those
    // few syndromes — distinct from every odd-error syndrome because the
    // code corrects weight 2 — a match term cancels the OR, so b reads
    // parity(error) = 0 and no bogus X_L fires downstream.  Perfect codes
    // have an empty pair set (seed circuits unchanged).
    const std::vector<unsigned> pair_syndromes =
        codes::z_repair_even_pair_syndromes(code);
    for (const unsigned pair_syndrome : pair_syndromes)
      codes::append_match_pattern(circ, syndrome.subspan(0, mz), pair_syndrome,
                                  work.subspan(0, mz - 1), target,
                                  /*prep_target=*/false);
    // The match chains leave the work bits dirty; the OR needs them clean.
    if (!pair_syndromes.empty())
      for (std::size_t j = 0; j + 1 < mz; ++j) circ.prep_z(work[j]);
    codes::append_or_into(circ, syndrome.subspan(0, mz),
                          work.subspan(0, mz - 1), target);
  }
}

void append_ngate(circuit::Circuit& circ, const codes::CssCode& code,
                  const codes::CodeBlock& source,
                  std::span<const std::uint32_t> out, const NGateAncillas& anc,
                  const NGateOptions& options) {
  EQC_EXPECTS(options.repetitions >= 1 && options.repetitions % 2 == 1);
  EQC_EXPECTS(anc.copies.size() >=
              static_cast<std::size_t>(options.repetitions));
  EQC_EXPECTS(!out.empty());

  for (int r = 0; r < options.repetitions; ++r)
    append_n1(circ, code, source, anc.copies[static_cast<std::size_t>(r)],
              anc.syndrome, anc.work, options.syndrome_check);

  for (auto o : out) circ.prep_z(o);
  if (options.repetitions == 1) {
    codes::append_fanout(circ, anc.copies[0], out);
  } else if (options.repetitions == 3) {
    codes::append_majority3(circ, anc.copies[0], anc.copies[1], anc.copies[2],
                            out);
  } else {
    // One independent population count per output bit — no intermediate bit
    // is shared between output bits, so even a correlated multi-qubit gate
    // fault damages at most one output bit and one copy.
    for (auto o : out)
      codes::append_majority_counter(circ, anc.copies, options.repetitions,
                                     anc.maj_scratch, o);
  }
}

NGateAncillas allocate_ngate_ancillas(Layout& layout,
                                      const codes::CssCode& code,
                                      int repetitions) {
  EQC_EXPECTS(repetitions >= 1 && repetitions % 2 == 1);
  NGateAncillas anc;
  anc.copies = layout.reg(static_cast<std::size_t>(repetitions));
  anc.syndrome = layout.reg(code.num_z_checks());
  anc.work = layout.reg(code.num_z_checks() - 1);
  if (repetitions >= 5)
    anc.maj_scratch = layout.reg(codes::majority_counter_scratch(repetitions));
  return anc;
}

}  // namespace eqc::ftqc
