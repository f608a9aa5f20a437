// batch-solve: a closed loop with one caller, the way the CLI's
// `dimension` and `evaluate` are used.  The search engine (probes,
// speculation, eval cache, warm-start anchors) and the solver kernel do
// the work here; serve's front end does none.
//
// Steps per round:
//   - dimension_windows on the thesis CANADA 2- and 4-class networks,
//     including the (6,6,6,12) four-class case, at threads=1 and at
//     threads=min(4, nproc);
//   - dimension_windows on seeded mid-size random networks;
//   - one converged heuristic-MVA solve of a 10k-chain large-cyclic
//     model at solver_threads=1 and at solver_threads=min(4, nproc).
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "net/examples.h"
#include "net/generators.h"
#include "obs/trace.h"
#include "qn/compiled_model.h"
#include "solver/registry.h"
#include "solver/workspace.h"
#include "util/thread_pool.h"
#include "verify/gen.h"
#include "windim/dimension.h"

namespace perfbench {
namespace {

using namespace windim;

// The 10k-chain fixture is the same for every run seed: a converged
// solve's sweep count depends on the instance (346-535 sweeps over
// generator seeds 1-6, so 1.7-2.4 s), and a seed-dependent fixture
// would make evaluate.large_* measure the draw instead of the solver.
// It is generator seed 1, the fixture bench/perf_large_model uses.
constexpr std::uint64_t kLargeFixtureSeed = 1;
constexpr int kLargeChains = 10000;
constexpr int kGeneratedNetworks = 64;
// The CANADA set takes a few ms per pass, so each round repeats it;
// every repeat is one more sample for the kFastQuantile estimates.
constexpr int kCanadaRepeats = 8;

/// Per-item times (ms), one list per network.  A set's time is the sum
/// over its networks of each network's kFastQuantile: a slow stretch of
/// the host then spoils one sample of one network rather than a whole
/// pass over the set.
using ItemTimes = std::vector<std::vector<double>>;

double sum_of_fast(const ItemTimes& items) {
  double sum = 0.0;
  for (const std::vector<double>& t : items) sum += quantile(t, kFastQuantile);
  return sum;
}

struct Case {
  std::string name;
  std::unique_ptr<core::WindowProblem> problem;
};

struct Large {
  qn::CompiledModel model;
  std::vector<int> population;
};

Large make_large(std::uint64_t seed, int chains) {
  verify::GenOptions opt;
  opt.large_chains = chains;
  const verify::Instance inst =
      verify::generate(verify::Family::kLargeCyclic, seed, opt);
  Large out;
  out.model = qn::CompiledModel::compile(inst.model);
  out.population.assign(out.model.base_populations().begin(),
                        out.model.base_populations().end());
  return out;
}

/// Copy of what a Solution's spans point at (they die with the next
/// solve on the workspace).
struct SolvedLarge {
  std::vector<double> throughput;
  std::vector<double> queue;
  int iterations = 0;
  bool converged = false;
};

bool bit_identical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double rel_diff(double a, double b) {
  const double scale = std::max(std::abs(a), std::abs(b));
  return scale == 0.0 ? 0.0 : std::abs(a - b) / scale;
}

class BatchSection final : public Section {
 public:
  explicit BatchSection(const Config& config) : config_(config) {}
  [[nodiscard]] std::string name() const override { return "batch-solve"; }

  void prepare() override {
    canada_.clear();
    generated_.clear();
    const net::Topology canada = net::canada_topology();
    const auto add = [&](std::string name, std::vector<net::TrafficClass> c) {
      canada_.push_back(
          {std::move(name),
           std::make_unique<core::WindowProblem>(canada, std::move(c))});
    };
    add("canada2(20,20)", net::two_class_traffic(20, 20));
    add("canada2(15,25)", net::two_class_traffic(15, 25));
    add("canada4(6,6,6,12)", net::four_class_traffic(6, 6, 6, 12));
    add("canada4(8,8,8,8)", net::four_class_traffic(8, 8, 8, 8));

    // Sizes cycle through every (nodes, classes) pair the same way for
    // every seed; the seed draws the topologies and the traffic.  The
    // set's cost then depends on the seed far less than with drawn
    // sizes (the class count sets the search's dimension).
    for (int k = 0; k < kGeneratedNetworks; ++k) {
      util::Rng rng(mix_seed(config_.seed, 1000 + k));
      const net::Topology topo =
          net::random_topology(8 + k % 5, 2 + (k / 5) % 5, 25.0, 100.0, rng);
      auto classes = net::random_traffic(topo, 3 + k % 4, 5.0, 20.0, rng);
      generated_.push_back(
          {"generated" + std::to_string(k),
           std::make_unique<core::WindowProblem>(topo, std::move(classes))});
    }

    large_ = make_large(kLargeFixtureSeed, kLargeChains);
    c100_ = make_large(mix_seed(config_.seed, 22), 100);
    pool_ = std::make_unique<util::ThreadPool>(
        static_cast<std::size_t>(config_.threads));

    // Warm-up: the first dimension run of each network sizes the
    // shared workspace arenas.
    for (const Case& c : canada_) (void)dimension(c, 1);
    for (const Case& c : canada_) (void)dimension(c, config_.threads);
  }

  void round(bool emphasized, Report& report, SpanLog& spans) override {
    const long round = spans.open("batch.round");
    for (int rep = 0; rep < kCanadaRepeats; ++rep) {
      canada_set(1, report, spans, round, &canada_t1_);
      canada_set(config_.threads, report, spans, round, &canada_tn_);
    }

    const bool first = generated_windows_.empty();
    std::uint64_t generated_evals = 0;
    generated_ms_.resize(generated_.size());
    for (std::size_t k = 0; k < generated_.size(); ++k) {
      const Case& c = generated_[k];
      const double t0 = now_us();
      core::DimensionResult r;
      {
        SpanLog::Scope s(spans, "core.dimension_windows", round);
        r = dimension(c, 1);
      }
      generated_ms_[k].push_back((now_us() - t0) / 1000.0);
      if (!first) continue;
      report.check(r.feasible && !r.budget_exhausted,
                   c.name + ": dimension did not converge");
      generated_windows_.push_back(r.optimal_windows);
      generated_evals += r.objective_evaluations;
    }
    if (first) {
      report.note("generated networks: " + std::to_string(generated_evals) +
                  " objective evaluations at threads=1");
    }

    // A 10k-chain solve takes seconds.  Every round runs the serial one
    // (evaluate.large_serial_ms is an end-to-end metric).  The parallel
    // one feeds only evaluate.large_ms, a metric of the traced run: that
    // run times it every other round (the batch-solve workload every
    // round); an untraced run solves it once, in finish(), for the
    // bit-identity check.
    ++rounds_;
    solve_large(nullptr, spans, round, "solver.heuristic-mva.solve.c10k",
                large_serial_, serial_, report);
    if (spans.enabled() && (emphasized || rounds_ % 2 == 0)) {
      solve_large(pool_.get(), spans, round,
                  "solver.heuristic-mva.solve.c10k_mt", large_parallel_,
                  parallel_, report);
    }
    spans.close(round);
  }

  void finish(Report& report, SpanLog& spans) override {
    // The generated networks are dimensioned once more at threads=N.
    // Their optima can differ from threads=1 at a near-tie of the
    // objective (the warm-start anchor defect of ROADMAP item 1; about
    // one seed in ten hits it, e.g. seed 209 on generated9 and
    // generated53).  That is a known defect of the program, not of a
    // run, so it is counted as a metric and named in a note instead of
    // failing the run; the CANADA set above stays a failing check.
    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < generated_.size(); ++k) {
      const core::DimensionResult r = dimension(generated_[k], config_.threads);
      if (r.optimal_windows == generated_windows_[k]) continue;
      ++mismatches;
      report.note("known defect: " + generated_[k].name +
                  ": optimal windows differ between threads=1 and threads=" +
                  std::to_string(config_.threads));
    }
    report.set("search.threads_window_mismatches",
               static_cast<double>(mismatches), "count", generated_.size());
    // An untraced or short run still times and checks the parallel solve.
    if (large_parallel_.empty()) {
      solve_large(pool_.get(), spans, -1, "solver.heuristic-mva.solve.c10k_mt",
                  large_parallel_, parallel_, report);
    }
    report.check(bit_identical(serial_.throughput, parallel_.throughput) &&
                     bit_identical(serial_.queue, parallel_.queue) &&
                     serial_.iterations == parallel_.iterations,
                 "10k-chain solution differs across solver_threads");
    const auto fast = [&](const char* metric, const std::vector<double>& ms) {
      report.set(metric, quantile(ms, kFastQuantile), "ms", ms.size());
    };
    const auto set_sum = [&](const char* metric, const ItemTimes& items) {
      report.set(metric, sum_of_fast(items), "ms", items.front().size());
    };
    set_sum("dimension.canada_ms", canada_t1_);
    set_sum("dimension.canada_mt_ms", canada_tn_);
    set_sum("dimension.generated_ms", generated_ms_);
    fast("evaluate.large_serial_ms", large_serial_);
    fast("evaluate.large_ms", large_parallel_);
    report.set("search.threads_f_rel_diff", f_rel_diff_, "ratio",
               canada_.size());
    if (!spans.enabled()) return;
    layer_metrics(report, spans);
    if (config_.workload == name()) {
      const double pct = trace_overhead_pct(
          [&](SpanLog& log) {
            for (int i = 0; i < 10; ++i) {
              canada_set(1, report, log, -1, nullptr);
            }
          },
          spans, 9);
      report.set("bench.trace_overhead_pct", pct, "%", 9);
    }
  }

 private:
  [[nodiscard]] core::DimensionResult dimension(const Case& c, int threads,
                                                obs::SearchTrace* trace =
                                                    nullptr) {
    core::DimensionOptions opt;
    opt.threads = threads;
    opt.workspaces = &workspaces_;
    opt.trace = trace;
    return core::dimension_windows(*c.problem, opt);
  }

  /// One pass over the CANADA set at `threads`; adds each network's
  /// time (ms) to `times` unless it is null.  The first pass at each
  /// thread count is checked: windows and objectives at threads=N
  /// against threads=1.
  void canada_set(int threads, Report& report, SpanLog& spans, long parent,
                  ItemTimes* times) {
    const bool check = threads == 1 ? reference_.empty() : !canada_checked_;
    if (threads != 1 && check) canada_checked_ = true;
    if (times != nullptr) times->resize(canada_.size());
    for (std::size_t i = 0; i < canada_.size(); ++i) {
      const double t0 = now_us();
      core::DimensionResult r;
      {
        SpanLog::Scope s(spans,
                         threads == 1 ? "core.dimension_windows"
                                      : "core.dimension_windows.mt",
                         parent);
        r = dimension(canada_[i], threads);
      }
      if (times != nullptr) (*times)[i].push_back((now_us() - t0) / 1000.0);
      if (!check) continue;
      if (threads == 1) {
        reference_.push_back(r);
        report.check(r.feasible && !r.budget_exhausted,
                     canada_[i].name + ": dimension did not converge");
      } else {
        const core::DimensionResult& ref = reference_[i];
        report.check(r.optimal_windows == ref.optimal_windows,
                     canada_[i].name +
                         ": optimal windows differ between threads=1 and "
                         "threads=" + std::to_string(threads));
        if (!r.objective_vector.empty() && !ref.objective_vector.empty()) {
          f_rel_diff_ = std::max(
              f_rel_diff_,
              rel_diff(r.objective_vector[0], ref.objective_vector[0]));
        }
      }
    }
  }

  void solve_large(util::ThreadPool* pool, SpanLog& spans, long parent,
                   const char* span_name, std::vector<double>& times,
                   SolvedLarge& out, Report& report) {
    const solver::Solver& heuristic =
        solver::SolverRegistry::instance().require("heuristic-mva");
    large_ws_.hints.pool = pool;
    const double t0 = now_us();
    {
      SpanLog::Scope s(spans, span_name, parent);
      const solver::Solution sol =
          heuristic.solve(large_.model, large_.population, large_ws_);
      times.push_back((now_us() - t0) / 1000.0);
      out.throughput.assign(sol.chain_throughput.begin(),
                            sol.chain_throughput.end());
      out.queue.assign(sol.mean_queue.begin(), sol.mean_queue.end());
      out.iterations = sol.iterations;
      out.converged = sol.converged;
    }
    large_ws_.hints.pool = nullptr;
    report.check(out.converged, std::string(span_name) + ": did not converge");
    large_iterations_ = out.iterations;
  }

  /// Per-layer numbers of the traced run: sweep cost at three chain
  /// counts and the search engine's probe accounting.
  void layer_metrics(Report& report, SpanLog& spans) {
    const solver::Solver& heuristic =
        solver::SolverRegistry::instance().require("heuristic-mva");
    const auto sweep_cost = [&](const std::string& tag,
                                const qn::CompiledModel& model,
                                const std::vector<int>& population,
                                int repeats) {
      solver::Workspace ws;
      int iterations = 0;
      (void)heuristic.solve(model, population, ws);  // size the arena
      {
        SpanLog::Scope s(spans, "solver.heuristic-mva.solve." + tag);
        for (int i = 0; i < repeats; ++i) {
          iterations = heuristic.solve(model, population, ws).iterations;
        }
        s.set_count(static_cast<std::uint64_t>(repeats));
      }
      const std::vector<double> us =
          spans.per_op_self_us("solver.heuristic-mva.solve." + tag);
      const double cells = static_cast<double>(model.cell_count());
      report.set("solver.heuristic-mva.ns_per_chain_station_sweep." + tag,
                 median(us) * 1000.0 / (cells * iterations), "ns",
                 us.size());
      report.set("solver.heuristic-mva.sweeps." + tag, iterations, "count",
                 1);
    };
    const core::WindowProblem& c4 = *canada_[2].problem;
    sweep_cost("c4", c4.compiled(), c4.kleinrock_windows(), 500);
    sweep_cost("c100", c100_.model, c100_.population, 50);
    {
      const std::vector<double> us =
          spans.per_op_self_us("solver.heuristic-mva.solve.c10k");
      const double cells = static_cast<double>(large_.model.cell_count());
      report.set("solver.heuristic-mva.ns_per_chain_station_sweep.c10k",
                 median(us) * 1000.0 / (cells * large_iterations_), "ns",
                 us.size());
      report.set("solver.heuristic-mva.sweeps.c10k", large_iterations_,
                 "count", 1);
    }

    // Search accounting on the (6,6,6,12) case.  The serial-replay
    // trace gives the probe count and every probe's objective, so the
    // thread-count dependence of ROADMAP item 1 shows probe by probe.
    const Case& c = canada_[2];
    obs::SearchTrace serial_trace;
    obs::SearchTrace mt_trace;
    core::DimensionResult serial;
    core::DimensionResult mt;
    {
      SpanLog::Scope s(spans, "search.dimension_windows.t1");
      serial = dimension(c, 1, &serial_trace);
    }
    {
      SpanLog::Scope s(spans, "search.dimension_windows.mt");
      mt = dimension(c, config_.threads, &mt_trace);
    }
    const std::uint64_t probes = serial_trace.total_appended();
    const auto records1 = serial_trace.records();
    const auto records_n = mt_trace.records();
    for (std::size_t i = 0; i < records1.size() && i < records_n.size(); ++i) {
      f_rel_diff_ = std::max(
          f_rel_diff_, rel_diff(records1[i].objective, records_n[i].objective));
    }
    report.set("search.threads_f_rel_diff", f_rel_diff_, "ratio",
               records1.size());
    report.set("search.probes", static_cast<double>(probes), "count", 1);
    report.set("search.fresh_evals",
               static_cast<double>(mt.objective_evaluations), "count", 1);
    report.set("search.cache_hits", static_cast<double>(mt.cache_hits),
               "count", 1);
    report.set("search.useful_ratio",
               mt.objective_evaluations == 0
                   ? 0.0
                   : static_cast<double>(serial.objective_evaluations) /
                         static_cast<double>(mt.objective_evaluations),
               "ratio", mt.objective_evaluations);
    const auto [t1_us, t1_ops] =
        spans.total_self_us("search.dimension_windows.t1");
    report.set("search.ns_per_probe",
               probes == 0 ? 0.0 : t1_us * 1000.0 / static_cast<double>(probes),
               "ns", probes);
    report.check(serial.optimal_windows == mt.optimal_windows,
                 c.name + ": traced optimal windows differ across threads");
  }

  const Config& config_;
  std::vector<Case> canada_;
  std::vector<Case> generated_;
  Large large_;
  Large c100_;
  std::unique_ptr<util::ThreadPool> pool_;
  solver::WorkspacePool workspaces_;
  solver::Workspace large_ws_;
  std::vector<core::DimensionResult> reference_;  // CANADA at threads=1
  bool canada_checked_ = false;
  std::vector<std::vector<int>> generated_windows_;
  SolvedLarge serial_;    // the last solve at solver_threads=1
  SolvedLarge parallel_;  // the last solve at solver_threads=N
  int rounds_ = 0;
  ItemTimes canada_t1_, canada_tn_, generated_ms_;
  std::vector<double> large_serial_, large_parallel_;
  double f_rel_diff_ = 0.0;
  int large_iterations_ = 0;
};

}  // namespace

std::unique_ptr<Section> make_batch_section(const Config& config) {
  return std::make_unique<BatchSection>(config);
}

}  // namespace perfbench
