// Deterministic pseudo-random number generation (PCG32) and hashing.
//
// Everything stochastic in the simulator draws from a seeded Pcg32 so that
// scenarios, tests and benches are exactly reproducible run to run.
#pragma once

#include <cstdint>
#include <string_view>

namespace perfsight {

// PCG-XSH-RR 64/32 (Melissa O'Neill, pcg-random.org; minimal variant).
class Pcg32 {
 public:
  explicit Pcg32(uint64_t seed = 0x853c49e6748fea9bULL,
                 uint64_t stream = 0xda3e39cb94b95bdbULL)
      : state_(0), inc_((stream << 1u) | 1u) {
    next_u32();
    state_ += seed;
    next_u32();
  }

  uint32_t next_u32() {
    uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    uint32_t xorshifted = static_cast<uint32_t>(((old >> 18u) ^ old) >> 27u);
    uint32_t rot = static_cast<uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  // Uniform in [0, bound) without modulo bias.
  uint32_t next_below(uint32_t bound) {
    if (bound <= 1) return 0;
    uint32_t threshold = (0u - bound) % bound;
    for (;;) {
      uint32_t r = next_u32();
      if (r >= threshold) return r % bound;
    }
  }

  // Uniform in [0, 1).
  double next_double() {
    return static_cast<double>(next_u32()) / 4294967296.0;
  }

  // Uniform in [lo, hi].
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

 private:
  uint64_t state_;
  uint64_t inc_;
};

// FNV-1a 64-bit: the fault plan's per-name decision key, the trace span
// domain and the golden tests' digests.  Changing it would move every fault
// decision and golden.  (Wire frames carry wire::checksum instead.)
inline uint64_t fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfsight
