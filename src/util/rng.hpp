// Deterministic pseudo-random generator (SplitMix64).
//
// Everything random in the framework — transformation selection, split
// points, per-message random halves (SplitAdd's X1), pad contents, random
// workload messages — flows through this generator so that a (seed,
// configuration) pair reproduces an experiment bit-for-bit. We do not use
// <random> distributions because their outputs are implementation-defined;
// bounded draws use Lemire-style rejection-free multiplication instead.
#pragma once

#include <cstdint>
#include <span>

#include "util/bytes.hpp"

namespace protoobf {

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  /// SplitMix64 step: full-period 64-bit stream.
  std::uint64_t next_u64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform draw in [0, bound); bound must be > 0.
  std::uint64_t below(std::uint64_t bound) {
    // Multiply-shift mapping; bias is negligible for the small bounds used.
    const unsigned __int128 product =
        static_cast<unsigned __int128>(next_u64()) * bound;
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Uniform draw in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    return lo + below(hi - lo + 1);
  }

  Byte byte() { return static_cast<Byte>(next_u64() & 0xff); }

  Bytes bytes(std::size_t n) {
    Bytes out;
    fill(out, n);
    return out;
  }

  /// bytes() into an existing buffer, reusing its capacity. Draws the same
  /// stream as bytes(), so pooled and plain paths stay bit-identical.
  void fill(Bytes& out, std::size_t n) {
    out.resize(n);
    for (auto& b : out) b = byte();
  }

  bool chance(double p) {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53 < p;
  }

  /// Uniformly picks an element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    return items[below(items.size())];
  }

  /// In-place Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

}  // namespace protoobf
