// Shared plumbing of the windim benchmark: run configuration, the
// metric/check report, and the in-memory span log of the traced run.
//
// The benchmark drives the library only through public functions, from
// outside.  Every run executes all three sections (serve, batch,
// scenario), so every run reports every end-to-end metric; the workload
// named on the command line gets the most samples.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace perfbench {

/// Microseconds on the steady clock.
[[nodiscard]] inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Compute-bound timings are reported as this low quantile of many
/// short samples spread over the run.  The host's speed is bimodal
/// (neighbours on shared cores slow a vCPU by 1.2-2.6x for seconds to
/// minutes at a time), so a median flips between modes within a run
/// while the fast mode's low quantile stays put as long as the run sees
/// the fast mode at all.
constexpr double kFastQuantile = 0.1;

struct Config {
  std::string workload;    // serve-mixed | batch-solve | scenario-grid
  std::uint64_t seed = 1;
  double seconds = 10.0;   // measured time for the whole run
  bool trace = false;      // the per-layer traced run
  int threads = 1;         // min(4, hardware threads)
  std::string socket_path;
  std::string spans_path;  // where the traced run writes its spans

};

/// Random draws for input generation; fully specified by the standard
/// (no distribution objects), so a seed gives the same inputs anywhere.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : engine_(seed) {}
  [[nodiscard]] double uniform01() {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }
  [[nodiscard]] double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform01();
  }
  /// Integer in [lo, hi].
  [[nodiscard]] int integer(int lo, int hi) {
    return lo + static_cast<int>(engine_() %
                                 static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Index drawn with probability proportional to weights[i].
  [[nodiscard]] std::size_t weighted(const std::vector<double>& weights);

 private:
  std::mt19937_64 engine_;
};

/// In-memory spans: name, start, end, parent, request id.  Recording is
/// a no-op unless enabled (the untraced runs pay one branch per call).
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  // steady-clock microseconds
    double end = 0.0;
    long parent = -1;
    std::uint64_t request = 0;  // 0 = not part of a request
    std::uint64_t count = 1;    // operations the span covers
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span now; returns its index (-1 when disabled).
  long open(const std::string& name, long parent = -1,
            std::uint64_t request = 0);
  void close(long index, std::uint64_t count = 1);
  /// Adds a finished span (e.g. one imported from a server trace).
  long add(Span span);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span, in the order of spans().
  [[nodiscard]] std::vector<double> self_us() const;

  /// Per-operation self times (us) of every span with this name.
  [[nodiscard]] std::vector<double> per_op_self_us(
      const std::string& name) const;
  /// Total self time (us) and total operation count over the name.
  [[nodiscard]] std::pair<double, std::uint64_t> total_self_us(
      const std::string& name) const;

  /// JSON lines, one span per line, plus a per-name self-time summary.
  bool write(const std::string& path) const;

  /// RAII span around one call.
  class Scope {
   public:
    Scope(SpanLog& log, const std::string& name, long parent = -1,
          std::uint64_t request = 0)
        : log_(log), index_(log.open(name, parent, request)) {}
    ~Scope() { log_.close(index_, count_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_count(std::uint64_t n) { count_ = n; }

   private:
    SpanLog& log_;
    long index_;
    std::uint64_t count_ = 1;
  };

 private:
  bool enabled_;
  std::vector<Span> spans_;
  mutable std::vector<double> self_cache_;
};

/// Metrics and output checks of one run.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
  };

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples);
  /// One attempted operation; a false `ok` counts as failed and logs
  /// `what` (the run continues).
  void check(bool ok, const std::string& what);
  /// Free-form accounting lines (per-rate tables etc.) kept for the
  /// result file and echoed to stderr.
  void note(const std::string& line);

  /// The run's result document (one JSON object).
  [[nodiscard]] std::string to_json(const Config& config) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// bench.trace_overhead_pct: `unit` run `reps` times with recording
/// off and on, alternating; the traced median minus the untraced one, as
/// a percentage of the untraced one.
[[nodiscard]] double trace_overhead_pct(
    const std::function<void(SpanLog&)>& unit, SpanLog& spans, int reps);

// --- sections ---------------------------------------------------------

/// One workload's code path.  prepare() builds the seeded inputs,
/// compiles fixtures, starts what must run and warms caches; it is
/// timed as set-up and repeated on fresh objects.  The run then
/// alternates short rounds of every section until the measured time is
/// spent, so each metric samples the whole run rather than one stretch
/// of it (the host's speed drifts over seconds); the named workload's
/// section does more work per round.  finish() turns the samples into
/// metrics and, in the traced run, adds the per-layer numbers.
class Section {
 public:
  virtual ~Section() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void prepare() = 0;
  virtual void round(bool emphasized, Report& report, SpanLog& spans) = 0;
  virtual void finish(Report& report, SpanLog& spans) = 0;
};

[[nodiscard]] std::unique_ptr<Section> make_serve_section(
    const Config& config);
[[nodiscard]] std::unique_ptr<Section> make_batch_section(
    const Config& config);
[[nodiscard]] std::unique_ptr<Section> make_grid_section(
    const Config& config);

/// FNV-1a hash of the serve section's request stream (lines, due times,
/// connections): the nominal phases of its first `rounds` rounds and the
/// ladder.  The reproducibility check.
[[nodiscard]] std::uint64_t serve_plan_fingerprint(const Config& config,
                                                   int rounds);

/// FNV-1a hashes of round `round`'s nominal phase: `first` over its
/// arrival times, connections, ops and the requests on popular specs,
/// `second` over the requests on never-seen specs.  Every round should
/// share `first` and differ in `second`.
[[nodiscard]] std::pair<std::uint64_t, std::uint64_t>
serve_round_fingerprints(const Config& config, int round);

/// Unit checks of the benchmark's own arithmetic; returns failures.
[[nodiscard]] int run_unit_checks();

}  // namespace perfbench
