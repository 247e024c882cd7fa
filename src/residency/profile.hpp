// FleetProfile: the immutable per-fleet configuration every home shares —
// seed derivation and the seed-derived device population tables.
// live::LiveFleet holds it behind a shared_ptr, so N homes (and every
// hibernate/wake cycle of a home) read one read-only table instead of
// re-deriving private copies, shrinking the per-home resident footprint
// (docs/residency.md).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "workload/scenario.hpp"

namespace hw::residency {

struct FleetProfile {
  std::uint64_t fleet_seed = 0;
  std::size_t devices_per_home = 0;
  /// home_seed(fleet_seed, k) for every home, precomputed.
  std::vector<std::uint64_t> home_seeds;
  /// Seed-derived device population per home (name, kind, wireless position).
  std::vector<std::vector<workload::DeviceSpec>> device_specs;

  /// Seed for home `home_id` under fleet seed `fleet_seed`: a SplitMix64
  /// stream keyed by (fleet_seed, home_id), the id mixed through one
  /// splitmix step first so neighbouring homes decorrelate even for tiny
  /// fleet seeds.
  [[nodiscard]] static std::uint64_t home_seed(std::uint64_t fleet_seed,
                                               std::size_t home_id);

  /// Derives the population for one home seed (kept in one place so the
  /// planes can never drift apart).
  [[nodiscard]] static std::vector<workload::DeviceSpec> derive_devices(
      std::uint64_t home_seed, std::size_t devices_per_home);

  /// Builds the shared profile for a fleet.
  [[nodiscard]] static std::shared_ptr<const FleetProfile> build(
      std::uint64_t fleet_seed, std::size_t homes,
      std::size_t devices_per_home);
};

}  // namespace hw::residency
