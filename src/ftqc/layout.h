// Register layout helper: hands out qubit indices for blocks, classical
// registers and single ancillas, so circuit builders can be composed without
// hard-coding qubit numbers.
#pragma once

#include <cstdint>
#include <vector>

#include "codes/css_code.h"
#include "common/assert.h"

namespace eqc::ftqc {

class Layout {
 public:
  /// Allocates one qubit.
  std::uint32_t bit() { return next_++; }

  /// Allocates `n` consecutive qubits.
  std::vector<std::uint32_t> reg(std::size_t n) {
    std::vector<std::uint32_t> out(n);
    for (auto& q : out) q = next_++;
    return out;
  }

  /// Allocates an n-qubit code block for `code`.
  codes::CodeBlock block(const codes::CssCode& code) {
    return code_block(code.n());
  }

  /// Allocates an `n`-qubit contiguous block.
  codes::CodeBlock code_block(std::size_t n) {
    const auto b = codes::CodeBlock::contiguous(next_, n);
    next_ += static_cast<std::uint32_t>(n);
    return b;
  }

  /// Total number of qubits handed out so far.
  std::size_t total() const { return next_; }

 private:
  std::uint32_t next_ = 0;
};

}  // namespace eqc::ftqc
