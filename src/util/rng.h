// Deterministic, splittable pseudo-random number generator.
//
// All stochastic pieces of the library (random graph adversaries, placements,
// crash schedules) consume this generator so that every experiment is
// reproducible from a single seed. The engine is xoshiro256** which is small,
// fast, and has no global state.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace dyndisp {

class Rng {
 public:
  /// Seeds the generator via splitmix64 expansion of `seed`.
  explicit Rng(std::uint64_t seed = 0xD15CE55E5EEDULL);

  /// Next raw 64-bit draw.
  std::uint64_t next_u64();

  /// Uniform integer in [0, bound). `bound` must be > 0.
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double uniform01();

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Picks a uniformly random element; `v` must be non-empty.
  template <typename T>
  const T& pick(const std::vector<T>& v) {
    return v[static_cast<std::size_t>(below(v.size()))];
  }

  /// Derives an independent child generator (for per-component streams).
  Rng split();

 private:
  std::uint64_t s_[4];
};

/// Stateless counter-based generator: draw `i` of the stream keyed by
/// (seed, stream) is a pure function of (seed, stream, i) -- a splitmix64
/// finalizer over key + i*golden -- so disjoint index ranges can be
/// evaluated concurrently, or in any order, with bitwise-identical results.
/// This is what lets the graph builders run edge generation and port
/// assignment through parallel_for while keeping the emitted graph
/// byte-identical at any thread count (the adversary conformance suite
/// pins exactly that property).
class CounterRng {
 public:
  CounterRng(std::uint64_t seed, std::uint64_t stream);

  /// Raw 64-bit draw at index `i`. Inline, like below(): the builders
  /// call both once per port and per Prüfer position.
  std::uint64_t at(std::uint64_t i) const {
    return mix(key_ + i * 0x9E3779B97F4A7C15ULL);
  }

  /// Integer in [0, bound) from draw `i`, via the fixed-point multiply map
  /// (at(i) * bound) >> 64. Unlike Rng::below's rejection loop this
  /// consumes exactly one indexed draw -- a counter stream cannot retry
  /// without losing its index structure -- at the price of a bias below
  /// bound/2^64, negligible for every bound this library draws.
  std::uint64_t below(std::uint64_t bound, std::uint64_t i) const {
    assert(bound > 0);
    __extension__ using Wide = unsigned __int128;
    return static_cast<std::uint64_t>((static_cast<Wide>(at(i)) * bound) >> 64);
  }

  /// Derives the stream for sub-entity `sub` (per-node port streams and the
  /// like); forks of distinct subs are independent of each other and of the
  /// parent's own draws.
  CounterRng fork(std::uint64_t sub) const;

 private:
  explicit CounterRng(std::uint64_t key) : key_(key) {}
  /// splitmix64's stateless finalizer (the mixing rounds without the
  /// stream increment).
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::uint64_t key_;
};

}  // namespace dyndisp
