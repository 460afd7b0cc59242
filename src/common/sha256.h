// SHA-256. The consistent result cache (paper §4.2.2) keys each entry by
// a hash of the function's argument; a collision there would serve
// another argument's cached result, so a cryptographic hash is the right
// tool.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace lo {

using Sha256Digest = std::array<uint8_t, 32>;

/// One-shot SHA-256 of `data`.
Sha256Digest Sha256(std::string_view data);

/// Digest rendered as lowercase hex (64 chars).
std::string Sha256Hex(std::string_view data);

/// Incremental hasher for multi-part inputs (e.g. argument lists).
class Sha256Hasher {
 public:
  Sha256Hasher();
  void Update(std::string_view data);
  Sha256Digest Finish();

 private:
  void Compress(const uint8_t block[64]);

  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  std::array<uint8_t, 64> buffer_{};
  size_t buffered_ = 0;
};

}  // namespace lo
