#include <cstdio>
#include <iostream>
#include <thread>

#include "bench.h"
#include "obs/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_COMPILER
#define PERFBENCH_CXX_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CPU_MODEL
#define PERFBENCH_CPU_MODEL "unknown"
#endif

namespace perfbench {

std::size_t Draw::weighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double x = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    if (x < weights[i]) return i;
    x -= weights[i];
  }
  return weights.size() - 1;
}

// --- SpanLog ------------------------------------------------------------

long SpanLog::open(const std::string& name, long parent,
                   std::uint64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.request = request;
  s.start = now_us();
  s.end = s.start;
  spans_.push_back(std::move(s));
  return static_cast<long>(spans_.size()) - 1;
}

void SpanLog::close(long index, std::uint64_t count) {
  if (index < 0) return;
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = now_us();
  s.count = count;
}

long SpanLog::add(Span span) {
  if (!enabled_) return -1;
  spans_.push_back(std::move(span));
  return static_cast<long>(spans_.size()) - 1;
}

std::vector<double> SpanLog::self_us() const {
  if (self_cache_.size() != spans_.size()) {
    std::vector<Interval> iv;
    iv.reserve(spans_.size());
    for (const Span& s : spans_) iv.push_back({s.start, s.end, s.parent});
    self_cache_ = self_times(iv);
  }
  return self_cache_;
}

std::vector<double> SpanLog::per_op_self_us(const std::string& name) const {
  const std::vector<double> self = self_us();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    out.push_back(self[i] / static_cast<double>(spans_[i].count));
  }
  return out;
}

std::pair<double, std::uint64_t> SpanLog::total_self_us(
    const std::string& name) const {
  const std::vector<double> self = self_us();
  double total = 0.0;
  std::uint64_t ops = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    total += self[i];
    ops += spans_[i].count;
  }
  return {total, ops};
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = self_us();
  std::map<std::string, std::pair<double, std::uint64_t>> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"i\":%zu,\"name\":\"%s\",\"start_us\":%.3f,"
                 "\"end_us\":%.3f,\"parent\":%ld,\"request\":%llu,"
                 "\"count\":%llu,\"self_us\":%.3f}\n",
                 i, s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.count), self[i]);
    auto& agg = by_name[s.name];
    agg.first += self[i];
    agg.second += s.count;
  }
  for (const auto& [name, agg] : by_name) {
    std::fprintf(f,
                 "{\"summary\":\"%s\",\"self_us_total\":%.3f,\"ops\":%llu}\n",
                 name.c_str(), agg.first,
                 static_cast<unsigned long long>(agg.second));
  }
  return std::fclose(f) == 0;
}

double trace_overhead_pct(const std::function<void(SpanLog&)>& unit,
                          SpanLog& spans, int reps) {
  SpanLog off(false);
  std::vector<double> plain;
  std::vector<double> traced;
  for (int i = 0; i < reps; ++i) {
    for (SpanLog* log : {&off, &spans}) {
      const double t0 = now_us();
      unit(*log);
      (log == &off ? plain : traced).push_back(now_us() - t0);
    }
  }
  return (median(traced) - median(plain)) / median(plain) * 100.0;
}

// --- Report -------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit, std::size_t samples) {
  metrics_[name] = Metric{value, unit, samples};
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 50) failures_.push_back(what);
  std::cerr << "CHECK FAILED: " << what << "\n";
}

void Report::note(const std::string& line) {
  notes_.push_back(line);
  std::cerr << line << "\n";
}

std::string Report::to_json(const Config& config) const {
  using windim::obs::JsonWriter;
  JsonWriter w;
  w.begin_object();
  w.key("workload");
  w.value(std::string_view(config.workload));
  w.key("seed");
  w.value(config.seed);
  w.key("seconds");
  w.value(config.seconds);
  w.key("trace");
  w.value(config.trace);
  w.key("threads");
  w.value(config.threads);
  w.key("attempted");
  w.value(attempted_);
  w.key("failed");
  w.value(failed_);
  w.key("host");
  w.begin_object();
  w.key("hardware_threads");
  w.value(static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.key("cpu_model");
  w.value(std::string_view(PERFBENCH_CPU_MODEL));
  w.key("compiler");
  w.value(std::string_view(PERFBENCH_CXX_COMPILER));
  w.key("build_type");
  w.value(std::string_view(PERFBENCH_BUILD_TYPE));
  w.end_object();
  w.key("failures");
  w.begin_array();
  for (const std::string& f : failures_) w.value(std::string_view(f));
  w.end_array();
  w.key("notes");
  w.begin_array();
  for (const std::string& n : notes_) w.value(std::string_view(n));
  w.end_array();
  w.key("metrics");
  w.begin_object();
  for (const auto& [name, m] : metrics_) {
    w.key(name);
    w.begin_object();
    w.key("value");
    w.value(m.value);
    w.key("unit");
    w.value(std::string_view(m.unit));
    w.key("samples");
    w.value(static_cast<std::uint64_t>(m.samples));
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).str();
}

}  // namespace perfbench
