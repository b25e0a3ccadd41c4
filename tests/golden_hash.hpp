// Fingerprint for golden-pinned tests: FNV-1a over the 64-bit images of a
// vector's values (doubles by their bit patterns), so a recorded label or
// trace vector fits in one source literal.
#pragma once

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace plv {

template <typename T>
std::uint64_t fnv1a(const std::vector<T>& values) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const T& v : values) {
    std::uint64_t bits = 0;
    if constexpr (std::is_same_v<T, double>) {
      bits = std::bit_cast<std::uint64_t>(v);
    } else {
      bits = static_cast<std::uint64_t>(v);
    }
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

}  // namespace plv
