// Acceptance benchmark for the continental-scale heuristic-MVA kernel:
// solve generated large-cyclic fixtures (1k and 10k chains, seed 1)
// with
//
//   (a) legacy dense sweep — the live mva::solve_approx_mva on the
//       source NetworkModel: std::vector storage over the full
//       station x chain slab, the equivalence suite's reference;
//   (b) packed kernel      — the registry's heuristic-mva over the
//       CompiledModel's packed visit slots (only the visited
//       (chain, station) cells) with a warm Workspace arena.
//
// Both run the SAME fixed number of sweeps (tolerance 0), so the
// comparison is per-sweep work, not convergence luck.
//
// Gates (exit 1 on violation):
//   - the 10k-chain packed kernel is at least 2x faster per sweep than
//     the legacy dense sweep;
//   - both paths agree bit for bit on throughput, queue lengths, times
//     and sigma (large_max_rel_diff == 0: the packed walk skips only
//     exact +0.0 terms and reassociates no sum);
//   - the timed kernel reps perform ZERO workspace arena allocations.
//
// --json=PATH writes the measurements; --check compares them against
// --baseline-in (scale-free metrics); --trace-spans-out=PATH writes a
// Chrome-trace span file covering the timed phases (the CI
// perf-large-model job uploads it).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "baseline.h"
#include "mva/approx.h"
#include "obs/json.h"
#include "obs/span.h"
#include "qn/compiled_model.h"
#include "solver/registry.h"
#include "solver/solver.h"
#include "solver/workspace.h"
#include "verify/gen.h"

namespace {

using windim::qn::CompiledModel;

/// Largest relative difference between two equally long outputs, and
/// whether they are bitwise equal (NaN-safe: a NaN never compares
/// equal, so it can never pass as identical).
void compare_output(std::span<const double> got,
                    const std::vector<double>& want, double& max_rel_diff,
                    bool& identical) {
  if (got.size() != want.size()) {
    identical = false;
    return;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] != want[i]) identical = false;
    const double denom = std::max(1e-300, std::abs(want[i]));
    max_rel_diff = std::max(max_rel_diff, std::abs(got[i] - want[i]) / denom);
  }
}

template <typename Run>
double median_ms(int reps, const Run& run) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    const auto t1 = std::chrono::steady_clock::now();
    times.push_back(
        std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

struct SizeResult {
  int chains = 0;
  double legacy_ms = 0.0;
  double kernel_ms = 0.0;
  double speedup = 0.0;
  double max_rel_diff = 0.0;
  bool identical = true;
  std::uint64_t warm_allocations = 0;
};

SizeResult run_size(int chains, int sweeps, int reps) {
  windim::obs::SpanTracer::Scope span(&windim::obs::SpanTracer::global(),
                                      "bench.large_model", "bench");
  span.arg("chains", chains);

  windim::verify::GenOptions gen_opt;
  gen_opt.large_chains = chains;
  const windim::verify::Instance inst = windim::verify::generate(
      windim::verify::Family::kLargeCyclic, 1, gen_opt);
  const CompiledModel compiled = CompiledModel::compile(inst.model);
  const std::vector<int> population(compiled.base_populations().begin(),
                                    compiled.base_populations().end());

  // Fixed sweep count for both paths: per-sweep cost is the claim.
  windim::mva::ApproxMvaOptions options;
  options.max_iterations = sweeps;
  options.tolerance = 0.0;

  const windim::solver::Solver& kernel =
      windim::solver::SolverRegistry::instance().require("heuristic-mva");
  windim::solver::Workspace ws;
  ws.hints.mva = &options;

  // Warm-up: grow the arena to this model's high-water mark.
  (void)kernel.solve(compiled, population, ws);

  SizeResult out;
  out.chains = chains;
  // The last timed rep's solution stays valid in `ws` until its next
  // solve; the legacy solve below does not touch the workspace.
  windim::solver::Solution sol;
  const std::uint64_t allocs_before =
      windim::solver::Workspace::total_heap_allocations();
  {
    windim::obs::SpanTracer::Scope s(&windim::obs::SpanTracer::global(),
                                     "bench.kernel_solve", "bench");
    s.arg("chains", chains);
    out.kernel_ms = median_ms(
        reps, [&] { sol = kernel.solve(compiled, population, ws); });
    s.arg("median_ms", out.kernel_ms);
  }
  out.warm_allocations =
      windim::solver::Workspace::total_heap_allocations() - allocs_before;

  windim::mva::MvaSolution legacy;
  {
    windim::obs::SpanTracer::Scope s(&windim::obs::SpanTracer::global(),
                                     "bench.legacy_solve", "bench");
    s.arg("chains", chains);
    out.legacy_ms = median_ms(reps, [&] {
      legacy = windim::mva::solve_approx_mva(inst.model, options);
    });
    s.arg("median_ms", out.legacy_ms);
  }
  out.speedup = out.legacy_ms / out.kernel_ms;

  compare_output(sol.chain_throughput, legacy.chain_throughput,
                 out.max_rel_diff, out.identical);
  compare_output(sol.mean_queue, legacy.mean_queue, out.max_rel_diff,
                 out.identical);
  compare_output(sol.mean_time, legacy.mean_time, out.max_rel_diff,
                 out.identical);
  compare_output(sol.sigma, legacy.sigma, out.max_rel_diff, out.identical);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 5;
  int sweeps = 10;
  std::string json_path;
  std::string baseline_in;
  std::string baseline_out;
  std::string spans_path;
  bool check = false;
  double tolerance_pct = 25.0;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--reps=", 7) == 0) {
      reps = std::atoi(arg + 7);
      if (reps < 1) reps = 1;
    } else if (std::strncmp(arg, "--sweeps=", 9) == 0) {
      sweeps = std::atoi(arg + 9);
      if (sweeps < 1) sweeps = 1;
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      json_path = arg + 7;
    } else if (std::strncmp(arg, "--baseline-in=", 14) == 0) {
      baseline_in = arg + 14;
    } else if (std::strncmp(arg, "--baseline-out=", 15) == 0) {
      baseline_out = arg + 15;
    } else if (std::strncmp(arg, "--trace-spans-out=", 18) == 0) {
      spans_path = arg + 18;
    } else if (std::strcmp(arg, "--check") == 0) {
      check = true;
    } else if (std::strncmp(arg, "--tolerance-pct=", 16) == 0) {
      tolerance_pct = std::atof(arg + 16);
    } else {
      std::fprintf(
          stderr,
          "usage: bench_perf_large_model [--reps=N] [--sweeps=N]\n"
          "           [--json=PATH] [--trace-spans-out=PATH]\n"
          "           [--baseline-in=PATH] [--baseline-out=PATH]\n"
          "           [--check] [--tolerance-pct=P]\n"
          "--check compares the fresh measurements against the\n"
          "--baseline-in JSON (scale-free metrics only) and fails on\n"
          "any regression beyond the tolerance (default 25%%).\n");
      return 2;
    }
  }
  if (check && baseline_in.empty()) {
    std::fprintf(stderr, "error: --check requires --baseline-in=PATH\n");
    return 2;
  }

  if (!spans_path.empty()) {
    windim::obs::SpanTracer::global().set_enabled(true);
  }

  const SizeResult r1k = run_size(1000, sweeps, reps);
  const SizeResult r10k = run_size(10000, sweeps, reps);

  std::printf("large-cyclic fixtures, %d fixed sweeps, heuristic-MVA\n\n",
              sweeps);
  for (const SizeResult& r : {r1k, r10k}) {
    std::printf(
        "%6d chains: legacy %9.3f ms   kernel %8.3f ms   "
        "per sweep %7.3f / %7.3f ms   speedup %5.2fx   max rel diff %.2e\n",
        r.chains, r.legacy_ms, r.kernel_ms, r.legacy_ms / sweeps,
        r.kernel_ms / sweeps, r.speedup, r.max_rel_diff);
  }

  const double max_rel_diff = std::max(r1k.max_rel_diff, r10k.max_rel_diff);
  const bool identical_windows =
      r1k.identical && r10k.identical && max_rel_diff == 0.0;
  const std::uint64_t warm_allocations =
      r1k.warm_allocations + r10k.warm_allocations;

  bool pass = true;
  if (!(r10k.speedup >= 2.0)) {
    std::printf("FAIL: 10k-chain per-sweep speedup below 2x\n");
    pass = false;
  }
  if (!identical_windows) {
    std::printf(
        "FAIL: legacy and packed kernel solutions are not bit-identical\n");
    pass = false;
  }
  if (warm_allocations != 0) {
    std::printf("FAIL: warm kernel reps performed arena allocations\n");
    pass = false;
  }
  if (pass) std::printf("PASS\n");

  windim::obs::JsonWriter w;
  {
    w.begin_object();
    w.key("benchmark");
    w.value("perf_large_model");
    w.key("large_sweeps");
    w.value(sweeps);
    w.key("large_reps");
    w.value(reps);
    w.key("large_legacy_1k_ms");
    w.value(r1k.legacy_ms);
    w.key("large_kernel_1k_ms");
    w.value(r1k.kernel_ms);
    w.key("large_speedup_1k");
    w.value(r1k.speedup);
    w.key("large_legacy_10k_ms");
    w.value(r10k.legacy_ms);
    w.key("large_kernel_10k_ms");
    w.value(r10k.kernel_ms);
    w.key("large_speedup_10k");
    w.value(r10k.speedup);
    w.key("large_max_rel_diff");
    w.value(max_rel_diff);
    w.key("large_warm_workspace_allocations");
    w.value(warm_allocations);
    w.key("large_identical_windows");
    w.value(identical_windows);
    w.key("large_pass");
    w.value(pass);
    w.end_object();
  }
  const std::string json = w.str();

  if (!json_path.empty() && !windim::bench::save_file(json_path, json)) {
    std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (!baseline_out.empty() &&
      !windim::bench::save_file(baseline_out, json)) {
    std::fprintf(stderr, "error: cannot write %s\n", baseline_out.c_str());
    return 1;
  }
  if (!spans_path.empty() &&
      !windim::obs::SpanTracer::global().write_json(spans_path)) {
    std::fprintf(stderr, "error: cannot write %s\n", spans_path.c_str());
    return 1;
  }

  if (check) {
    const std::optional<std::string> baseline =
        windim::bench::load_file(baseline_in);
    if (!baseline.has_value()) {
      std::fprintf(stderr, "error: cannot read baseline %s\n",
                   baseline_in.c_str());
      return 1;
    }
    const windim::bench::BaselineReport report = windim::bench::compare_baseline(
        *baseline, json, windim::bench::perf_large_model_checks(tolerance_pct));
    std::printf("\nbaseline check vs %s (tolerance %.0f%%):\n%s",
                baseline_in.c_str(), tolerance_pct, report.render().c_str());
    if (!report.ok()) pass = false;
  }
  return pass ? 0 : 1;
}
