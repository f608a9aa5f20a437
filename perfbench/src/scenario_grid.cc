// scenario-grid: control::run_matrix over every policy x scenario on
// the CANADA 2-class network, at jobs=1 and at jobs=min(4, nproc).
// The simulator's event loop does nearly all of the work here and the
// other layers almost none, so a Calendar or msgnet_sim change shows
// here and nowhere else.
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "control/matrix.h"
#include "net/examples.h"
#include "sim/msgnet_sim.h"
#include "windim/dimension.h"
#include "windim/problem.h"

namespace perfbench {
namespace {

using namespace windim;

// Simulated seconds per cell: long enough that the event loop, not the
// one-off dimensioning, dominates a cell.
constexpr double kSimTime = 120.0;
constexpr double kWarmup = 12.0;

class GridSection final : public Section {
 public:
  explicit GridSection(const Config& config) : config_(config) {}
  [[nodiscard]] std::string name() const override { return "scenario-grid"; }

  void prepare() override {
    topology_ = net::canada_topology();
    classes_ = net::two_class_traffic(20, 20);
    options_ = control::MatrixOptions{};
    options_.sim_time = kSimTime;
    options_.warmup = kWarmup;
    options_.seed = mix_seed(config_.seed, 31);
  }

  void round(bool emphasized, Report& report, SpanLog& spans) override {
    const int pairs = emphasized ? 6 : 4;
    for (int i = 0; i < pairs; ++i) {
      const long round = spans.open("scenario.round");
      const std::string serial = grid(1, spans, round, serial_ms_);
      const std::string parallel =
          grid(config_.threads, spans, round, parallel_ms_);
      if (reference_.empty()) reference_ = serial;
      report.check(serial == parallel,
                   "scorecard differs between jobs=1 and jobs=" +
                       std::to_string(config_.threads));
      report.check(serial == reference_,
                   "scorecard not reproducible from the same seed");
      spans.close(round);
    }
  }

  void finish(Report& report, SpanLog& spans) override {
    report.set("scenario.grid_serial_ms", quantile(serial_ms_, kFastQuantile),
               "ms", serial_ms_.size());
    report.set("scenario.grid_ms", quantile(parallel_ms_, kFastQuantile), "ms",
               parallel_ms_.size());
    if (!spans.enabled()) return;

    // Per-layer split of one grid: the dimensioning run_matrix does
    // first, the cells, and one stationary cell's simulator directly.
    const core::WindowProblem problem(topology_, classes_);
    core::DimensionOptions dim;
    dim.max_window = options_.max_window;
    std::vector<double> dimension_ms;
    for (int i = 0; i < 5; ++i) {
      SpanLog::Scope s(spans, "control.matrix.dimension");
      (void)core::dimension_windows(problem, dim);
    }
    for (double us : spans.per_op_self_us("control.matrix.dimension")) {
      dimension_ms.push_back(us / 1000.0);
    }
    const std::size_t cells = last_.cells.size();
    const double grid_serial = quantile(serial_ms_, kFastQuantile);
    const double grid_parallel = quantile(parallel_ms_, kFastQuantile);
    report.set("control.matrix.dimension_ms", median(dimension_ms), "ms",
               dimension_ms.size());
    report.set("control.matrix.cell_ms",
               (grid_serial - median(dimension_ms)) /
                   static_cast<double>(cells),
               "ms", cells);
    report.set("control.matrix.parallel_efficiency",
               grid_serial / (config_.threads * grid_parallel), "ratio",
               serial_ms_.size());

    sim::MsgNetOptions sim_options;
    sim_options.windows = last_.static_windows;
    sim_options.sim_time = kSimTime;
    sim_options.warmup = kWarmup;
    sim_options.seed = options_.seed;
    std::vector<double> ns_per_msg;
    double delivered = 0.0;
    for (int i = 0; i < 5; ++i) {
      sim::MsgNetResult r;
      const double t0 = now_us();
      {
        SpanLog::Scope s(spans, "sim.simulate_msgnet");
        r = sim::simulate_msgnet(topology_, classes_, sim_options);
      }
      const double us = now_us() - t0;
      // Computed, not counted: the simulator reports a delivered rate
      // over its measured time, not a message count.
      delivered = r.delivered_rate * r.measured_time;
      report.check(delivered > 0.0, "stationary cell delivered nothing");
      if (delivered > 0.0) ns_per_msg.push_back(us * 1000.0 / delivered);
    }
    report.set("sim.msgnet.ns_per_delivered_msg", median(ns_per_msg),
               "ns/msg-computed",
               ns_per_msg.size());
    report.set("sim.msgnet.delivered_msgs", delivered, "msg-computed", 1);

    if (config_.workload == name()) {
      std::vector<double> scratch;
      const double pct = trace_overhead_pct(
          [&](SpanLog& log) { (void)grid(1, log, -1, scratch); }, spans, 5);
      report.set("bench.trace_overhead_pct", pct, "%", 5);
    }
  }

 private:
  /// One full grid at `jobs`; returns the rendered scorecard.
  std::string grid(int jobs, SpanLog& spans, long parent,
                   std::vector<double>& times) {
    control::MatrixOptions options = options_;
    options.jobs = jobs;
    const double t0 = now_us();
    {
      SpanLog::Scope s(spans,
                       jobs == 1 ? "control.run_matrix"
                                 : "control.run_matrix.mt",
                       parent);
      last_ = control::run_matrix(topology_, classes_, options);
    }
    times.push_back((now_us() - t0) / 1000.0);
    return control::render_scorecard(last_);
  }

  const Config& config_;
  net::Topology topology_;
  std::vector<net::TrafficClass> classes_;
  control::MatrixOptions options_;
  control::MatrixResult last_;
  std::string reference_;  // the first serial scorecard
  std::vector<double> serial_ms_;
  std::vector<double> parallel_ms_;
};

}  // namespace

std::unique_ptr<Section> make_grid_section(const Config& config) {
  return std::make_unique<GridSection>(config);
}

}  // namespace perfbench
