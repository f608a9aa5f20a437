#include "stats.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <utility>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// 0-based nearest rank of quantile q among n samples.
std::size_t nearest_rank(std::size_t n, double q) {
  const double rank = std::ceil(q * static_cast<double>(n));
  const std::size_t r = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return std::min(r, n) - 1;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), q)];
}

std::optional<Tail> tail_percentile(std::vector<double> values, double target,
                                    std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n < min_beyond + 1) return std::nullopt;
  std::sort(values.begin(), values.end());
  std::size_t k = nearest_rank(n, target);
  if (n - 1 - k < min_beyond) k = n - 1 - min_beyond;
  Tail t;
  t.level = static_cast<double>(k + 1) / static_cast<double>(n);
  t.value = values[k];
  t.samples = n;
  t.beyond = n - 1 - k;
  return t;
}

std::vector<double> self_times(const std::vector<Interval>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Interval& s : spans) {
    if (s.parent < 0) continue;
    const Interval& p = spans[static_cast<std::size_t>(s.parent)];
    const double a = std::max(s.start, p.start);
    const double b = std::min(s.end, p.end);
    if (b > a) children[static_cast<std::size_t>(s.parent)].emplace_back(a, b);
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& c = children[i];
    std::sort(c.begin(), c.end());
    double covered = 0.0;
    double run_a = 0.0;
    double run_b = -1.0;
    bool open = false;
    for (const auto& [a, b] : c) {
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
        continue;
      }
      if (open) covered += run_b - run_a;
      run_a = a;
      run_b = b;
      open = true;
    }
    if (open) covered += run_b - run_a;
    out[i] = std::max(0.0, (spans[i].end - spans[i].start) - covered);
  }
  return out;
}

std::vector<double> poisson_arrivals(std::uint64_t seed, double rate,
                                     double duration) {
  // mt19937_64 plus an explicit inverse-CDF draw: both are fully
  // specified by the standard, so a seed gives the same schedule with
  // any standard library.
  std::mt19937_64 engine(seed);
  std::vector<double> out;
  if (!(rate > 0.0) || !(duration > 0.0)) return out;
  out.reserve(static_cast<std::size_t>(rate * duration * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    // 53 random bits -> u in (0, 1].
    const double u =
        (static_cast<double>(engine() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) / rate;
    if (t >= duration) break;
    out.push_back(t);
  }
  return out;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace perfbench
