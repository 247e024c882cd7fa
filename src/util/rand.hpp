// Deterministic PRNG (xoshiro256**) so simulations and benches reproduce
// exactly across runs and platforms — std::mt19937 distributions are not
// cross-stdlib stable, so we implement our own distributions too.
#pragma once

#include <array>
#include <cstdint>

namespace hw {

/// One step of the SplitMix64 sequence: advances `state` and returns the
/// next output. This is the seed-derivation primitive (it is also how Rng
/// expands its seed into xoshiro state): a fleet derives every
/// home's seed as a SplitMix walk from the fleet seed, so per-home streams
/// are decorrelated yet fully determined by (fleet seed, home id).
std::uint64_t splitmix64(std::uint64_t& state);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

  std::uint64_t next();
  /// Uniform in [0, bound). bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);
  /// Uniform in [lo, hi] inclusive.
  std::int64_t uniform_range(std::int64_t lo, std::int64_t hi);
  /// Uniform double in [0, 1).
  double uniform01();
  /// True with probability p.
  bool chance(double p);
  /// Exponential with mean `mean` (>0).
  double exponential(double mean);
  /// Approximately normal via sum of uniforms (Irwin–Hall, 12 draws).
  double normal(double mean, double stddev);
  /// Pareto heavy-tail with shape alpha and scale xm (flow sizes).
  double pareto(double alpha, double xm);

  /// Raw xoshiro256** state, for checkpoint/restore. A restored stream
  /// continues bit-exactly where the captured one left off.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    s_[0] = s[0];
    s_[1] = s[1];
    s_[2] = s[2];
    s_[3] = s[3];
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace hw
