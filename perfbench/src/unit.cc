// The benchmark's own unit checks: its percentile rule, its self-time
// arithmetic, and seed-reproducible schedules.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::cerr << "unit check failed: " << what << "\n";
}

bool near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void percentile_rule() {
  // 1000 samples: p99 is rank 990, with exactly ten samples beyond it.
  const auto t1000 = tail_percentile(one_to(1000));
  expect(t1000 && near(t1000->level, 0.99) && near(t1000->value, 990) &&
             t1000->beyond == 10,
         "p99 of 1000 samples");
  // 500 samples: p99 would leave five beyond, so the rule steps down to
  // p98 (rank 490, ten beyond).
  const auto t500 = tail_percentile(one_to(500));
  expect(t500 && near(t500->level, 0.98) && near(t500->value, 490) &&
             t500->beyond == 10,
         "tail of 500 samples steps down to p98");
  // 5000 samples: p99 keeps 50 beyond.
  const auto t5000 = tail_percentile(one_to(5000));
  expect(t5000 && near(t5000->value, 4950) && t5000->beyond == 50,
         "p99 of 5000 samples");
  expect(!tail_percentile(one_to(10)).has_value(),
         "ten samples have no tail percentile");
  const auto t11 = tail_percentile(one_to(11));
  expect(t11 && near(t11->value, 1) && t11->beyond == 10,
         "eleven samples: the minimum is the only rank with ten beyond");
  expect(near(median(one_to(4)), 2.5) && near(median(one_to(5)), 3),
         "median of even and odd counts");
  expect(near(quantile(one_to(100), 0.5), 50), "nearest-rank quantile");
}

void self_time_arithmetic() {
  // root [0,10] with children [1,3] and [2,5] (overlapping: [1,5]
  // counted once), [7,8], and [9,12] (clipped to [9,10]); [1.5,2] is a
  // grandchild and only reduces its own parent.
  const std::vector<Interval> spans = {
      {0, 10, -1}, {1, 3, 0}, {2, 5, 0}, {7, 8, 0}, {9, 12, 0}, {1.5, 2, 1},
  };
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 10 - 4 - 1 - 1), "root self time");
  expect(near(self[1], 2 - 0.5), "child self time minus its grandchild");
  expect(near(self[2], 3) && near(self[3], 1) && near(self[4], 3) &&
             near(self[5], 0.5),
         "leaf self time is the duration");
  // A child that covers its parent entirely leaves no self time.
  const std::vector<double> covered = self_times({{0, 4, -1}, {-1, 5, 0}});
  expect(near(covered[0], 0), "fully covered parent");

  SpanLog log(true);
  const long root = log.open("root");
  log.add({"child", log.spans()[0].start, log.spans()[0].start, root, 0, 1});
  log.close(root, 4);
  expect(log.per_op_self_us("root").size() == 1 &&
             log.total_self_us("root").second == 4,
         "span operation counts");
  SpanLog off(false);
  expect(off.open("x") == -1 && off.spans().empty(),
         "a disabled log records nothing");
}

void reproducible_schedules() {
  const auto a = poisson_arrivals(7, 2000.0, 2.0);
  const auto b = poisson_arrivals(7, 2000.0, 2.0);
  const auto c = poisson_arrivals(8, 2000.0, 2.0);
  expect(a == b, "same seed, same arrival schedule");
  expect(a != c, "another seed, another arrival schedule");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) {
    increasing = increasing && a[i] > a[i - 1];
  }
  expect(increasing && !a.empty() && a.back() < 2.0,
         "arrivals increase inside the phase");
  // 4000 expected arrivals: five standard deviations is about 316.
  expect(std::abs(static_cast<double>(a.size()) - 4000.0) < 316.0,
         "arrival count matches the rate");

  Config config;
  config.workload = "serve-mixed";
  config.seed = 3;
  const std::uint64_t s1 = serve_plan_fingerprint(config, 2);
  const std::uint64_t s2 = serve_plan_fingerprint(config, 2);
  config.seed = 4;
  const std::uint64_t s3 = serve_plan_fingerprint(config, 2);
  expect(s1 == s2, "same seed, same serve request stream");
  expect(s1 != s3, "another seed, another serve request stream");
  const auto r0 = serve_round_fingerprints(config, 0);
  const auto r1 = serve_round_fingerprints(config, 1);
  expect(r0.first == r1.first,
         "every round's nominal phase carries the same requests");
  expect(r0.second != r1.second,
         "every round's nominal phase brings its own never-seen specs");
}

}  // namespace

int run_unit_checks() {
  failures = 0;
  percentile_rule();
  self_time_arithmetic();
  reproducible_schedules();
  std::cerr << (failures == 0 ? "unit checks passed\n"
                              : "unit checks FAILED\n");
  return failures;
}

}  // namespace perfbench
