// Order statistics, span self time and seeded arrival schedules: the
// arithmetic every section of the benchmark shares, kept apart so the
// unit checks (unit.cc) can pin it without running a workload.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle pair for an even count);
/// 0 for an empty input.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank quantile q in (0, 1] of `values`; 0 for an empty input.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// A tail percentile chosen by the benchmark's rule: the target
/// percentile (p99) when at least `min_beyond` samples lie strictly
/// above its nearest rank, else the highest percentile that still has
/// `min_beyond` samples beyond it.
struct Tail {
  double level = 0.0;       // the percentile actually reported, in (0, 1)
  double value = 0.0;
  std::size_t samples = 0;  // n
  std::size_t beyond = 0;   // samples strictly above the reported rank
};

/// nullopt when fewer than min_beyond + 1 samples exist.
[[nodiscard]] std::optional<Tail> tail_percentile(std::vector<double> values,
                                                  double target = 0.99,
                                                  std::size_t min_beyond = 10);

/// One recorded interval.  `parent` is the index of the enclosing span
/// in the same list, or -1 for a root.
struct Interval {
  double start = 0.0;
  double end = 0.0;
  long parent = -1;
};

/// Self time of every interval: its duration minus the part of it that
/// its direct children cover (children are clipped to the parent and
/// overlapping children are counted once).
[[nodiscard]] std::vector<double> self_times(
    const std::vector<Interval>& spans);

/// Arrival offsets (seconds from phase start) of a Poisson process of
/// `rate` per second over [0, duration), drawn from `seed` alone.
[[nodiscard]] std::vector<double> poisson_arrivals(std::uint64_t seed,
                                                   double rate,
                                                   double duration);

/// splitmix64: derives independent sub-seeds from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
