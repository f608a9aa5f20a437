// serve-mixed: an open loop of seeded Poisson arrivals feeding an
// in-process serve::Server behind serve_unix on an AF_UNIX socket,
// over two connections, with a two-worker server pool.  This is the
// only workload where the transport, protocol parse, spec
// canonicalization, compile, model cache, workspace lease and reply
// path carry most of the time.  Cache hits (reads) run beside misses
// and evictions (writes), so a cache change that helps one and costs
// the other shows.
//
// Every request is timed from the moment it was due, so a stall counts
// against the requests queued behind it.  The generator is one thread
// with non-blocking sockets: it never waits on the server to send.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <future>
#include <optional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "cli/spec.h"
#include "net/examples.h"
#include "net/generators.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/window.h"
#include "qn/compiled_model.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "solver/registry.h"
#include "solver/workspace.h"
#include "windim/problem.h"

namespace perfbench {

namespace {

using namespace windim;

constexpr int kWorkers = 2;
constexpr int kConnections = 2;
constexpr std::size_t kCacheCapacity = 64;
/// Offered rate of the phase the per-op latencies come from.
constexpr double kNominalRate = 2000.0;
/// Offered rates tried, ascending, for serve.max_rate_rps.
constexpr double kLadder[] = {2000.0, 2500.0, 3100.0, 3900.0, 4900.0,
                              6100.0, 7600.0, 9500.0, 11900.0, 14900.0};
/// The latency limit on the p99 of all requests at a ladder rate.
constexpr double kLatencyLimitUs = 25000.0;
/// Seconds at the nominal rate per round (twice that when serve-mixed
/// is the named workload) and per ladder rung.
constexpr double kNominalSeconds = 0.5;
constexpr double kRungSeconds = 0.4;
/// Share of evaluates on a spec never seen before (cache misses that
/// evict popular entries once the cache is full).
constexpr double kUnseenShare = 0.02;

enum Op { kEvaluate, kDimension, kPareto, kStats, kNumOps };
constexpr const char* kOpNames[kNumOps] = {"evaluate", "dimension", "pareto",
                                           "stats"};
constexpr double kOpWeights[kNumOps] = {0.86, 0.10, 0.02, 0.02};

struct SolverMix {
  const char* name;
  double weight;
  bool exact;  // lattice cost: only small specs and windows
};
constexpr SolverMix kSolvers[] = {
    {"heuristic-mva", 0.58, false}, {"schweitzer-mva", 0.12, false},
    {"linearizer", 0.10, false},    {"convolution", 0.08, true},
    {"exact-mva", 0.07, true},      {"buzen", 0.05, true},
};

struct Spec {
  std::string text;     // canonical spec text
  std::string escaped;  // JSON-escaped
  int chains = 0;
  bool canada = false;
};

struct Request {
  double due = 0.0;  // seconds from phase start
  int conn = 0;
  Op op = kEvaluate;
  std::string line;  // with id, no newline
  std::string key;   // the same request without its id (reply check)
  bool unseen = false;  // names a never-seen spec
};

struct Phase {
  std::string name;
  double rate = 0.0;
  std::vector<Request> requests;
};

std::string escape(const std::string& s) {
  std::string out;
  obs::JsonWriter::append_escaped(out, s);
  return out;
}

Spec make_spec(const net::Topology& topo,
               std::vector<net::TrafficClass> classes, bool canada) {
  Spec s;
  s.chains = static_cast<int>(classes.size());
  s.text = cli::render_network_spec(cli::NetworkSpec{topo, std::move(classes)});
  s.escaped = escape(s.text);
  s.canada = canada;
  return s;
}

double half_step(double x) { return std::round(x * 2.0) / 2.0; }

Spec canada_spec(Draw& d, int classes, bool unseen) {
  // Popular specs use rates on a 0.5 grid; never-seen ones use the full
  // draw, so they cannot collide with a popular spec.
  const auto rate = [&](double lo, double hi) {
    const double r = d.uniform(lo, hi);
    return unseen ? r : half_step(r);
  };
  const net::Topology topo = net::canada_topology();
  if (classes == 2) {
    return make_spec(topo, net::two_class_traffic(rate(10, 30), rate(10, 30)),
                     true);
  }
  return make_spec(topo,
                   net::four_class_traffic(rate(4, 12), rate(4, 12),
                                           rate(4, 12), rate(4, 12)),
                   true);
}

/// A line of `chains + 1` to `chains + 3` nodes; each class rides a
/// random sub-path of at least one hop.
Spec line_spec(Draw& d, int chains) {
  const int nodes = chains + d.integer(1, 3);
  const net::Topology topo =
      net::line_topology(nodes, half_step(d.uniform(40, 100)));
  std::vector<net::TrafficClass> classes;
  for (int c = 0; c < chains; ++c) {
    int a = d.integer(0, nodes - 1);
    int b = d.integer(0, nodes - 1);
    if (a == b) b = a == 0 ? 1 : a - 1;
    net::TrafficClass tc;
    tc.name = "c" + std::to_string(c);
    const int step = a < b ? 1 : -1;
    for (int n = a; n != b + step; n += step) {
      std::string node = "n";
      node += std::to_string(n);
      tc.path.push_back(std::move(node));
    }
    tc.arrival_rate = half_step(d.uniform(2, 10));
    classes.push_back(std::move(tc));
  }
  return make_spec(topo, std::move(classes), false);
}

/// The seeded spec corpus and request mix.
class Plan {
 public:
  explicit Plan(std::uint64_t seed) : draw_(mix_seed(seed, 11)) {
    for (int classes : {2, 4}) {
      for (int i = 0; i < 8; ++i) {
        popular_.push_back(canada_spec(draw_, classes, false));
      }
    }
    for (int chains = 2; chains <= 8; ++chains) {
      for (int i = 0; i < 4; ++i) popular_.push_back(line_spec(draw_, chains));
    }
    for (int i = 0; i < 4; ++i) popular_.push_back(line_spec(draw_, 1));
    // Zipf-like popularity over a seeded order of the corpus.
    std::vector<std::size_t> order(popular_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  draw_.integer(0, static_cast<int>(i) - 1))]);
    }
    popularity_.resize(popular_.size());
    for (std::size_t r = 0; r < order.size(); ++r) {
      popularity_[order[r]] = 1.0 / std::pow(static_cast<double>(r + 1), 0.8);
    }
  }

  [[nodiscard]] const std::vector<Spec>& popular() const { return popular_; }

  /// Restarts the request draws: each phase draws from its own seeds,
  /// so a phase's requests do not depend on how many phases ran before.
  /// `stream` fixes ops, specs, windows and solvers; `unseen` fixes only
  /// the rates of the never-seen specs, so two phases on one stream and
  /// two `unseen` seeds carry the same requests except that each brings
  /// its own new specs.
  void reseed(std::uint64_t stream, std::uint64_t unseen) {
    draw_ = Draw(stream);
    unseen_ = Draw(unseen);
  }

  /// Draws one request of a random op; `id` is its request id.
  Request next(const std::string& id) {
    Request r;
    r.op = static_cast<Op>(draw_.weighted(
        std::vector<double>(std::begin(kOpWeights), std::end(kOpWeights))));
    switch (r.op) {
      case kEvaluate: r.key = evaluate_line(r.unseen); break;
      case kDimension: {
        const Spec& s = pick([](const Spec& x) {
          return x.chains >= 2 && x.chains <= 4;
        });
        r.key = "{\"op\":\"dimension\",\"spec\":\"" + s.escaped + "\"";
        break;
      }
      case kPareto: {
        // Two-class only: a four-class scan takes ~4 ms, and a handful of
        // those would decide every tail percentile of the stream.
        const Spec& s = pick([](const Spec& x) {
          return x.canada && x.chains == 2;
        });
        r.key = "{\"op\":\"pareto\",\"spec\":\"" + s.escaped + "\"";
        break;
      }
      default: r.key = "{\"op\":\"stats\""; break;
    }
    r.line = r.key + ",\"id\":\"" + id + "\"}";
    r.key += "}";
    return r;
  }

  /// Warm-up lines: every popular spec through every solver the mix
  /// sends it, at the largest windows the mix draws (fills the model
  /// cache and sizes the workspace arenas), and the dimension-eligible
  /// specs through a dimension.
  [[nodiscard]] std::vector<std::string> warmup_lines() const {
    std::vector<std::string> out;
    for (const Spec& s : popular_) {
      for (const SolverMix& m : kSolvers) {
        const bool buzen = std::strcmp(m.name, "buzen") == 0;
        if (buzen != (s.chains == 1) || (m.exact && s.chains > 4)) continue;
        const char* window = m.exact ? "3" : "5";
        std::string w = "[";
        for (int c = 0; c < s.chains; ++c) {
          if (c > 0) w += ",";
          w += window;
        }
        out.push_back("{\"op\":\"evaluate\",\"spec\":\"" + s.escaped +
                      "\",\"windows\":" + w + "],\"solver\":\"" + m.name +
                      "\"}");
      }
      if (s.chains >= 2 && s.chains <= 4) {
        out.push_back("{\"op\":\"dimension\",\"spec\":\"" + s.escaped + "\"}");
      }
    }
    return out;
  }

 private:
  template <class Pred>
  const Spec& pick(Pred pred) {
    std::vector<double> w(popular_.size(), 0.0);
    for (std::size_t i = 0; i < popular_.size(); ++i) {
      if (pred(popular_[i])) w[i] = popularity_[i];
    }
    return popular_[draw_.weighted(w)];
  }

  std::string evaluate_line(bool& unseen_spec) {
    std::vector<double> weights;
    for (const SolverMix& m : kSolvers) weights.push_back(m.weight);
    const SolverMix& solver = kSolvers[draw_.weighted(weights)];
    const bool buzen = std::strcmp(solver.name, "buzen") == 0;
    const Spec* spec = nullptr;
    Spec unseen;
    if (!buzen && draw_.uniform01() < kUnseenShare) {
      unseen = canada_spec(unseen_, 2, true);
      unseen_spec = true;
      spec = &unseen;
    } else if (buzen) {
      spec = &pick([](const Spec& x) { return x.chains == 1; });
    } else if (solver.exact) {
      spec = &pick(
          [](const Spec& x) { return x.chains >= 2 && x.chains <= 4; });
    } else {
      spec = &pick([](const Spec& x) { return x.chains >= 2; });
    }
    const int max_window = solver.exact ? 3 : 5;
    std::string windows = "[";
    for (int c = 0; c < spec->chains; ++c) {
      if (c > 0) windows += ",";
      windows += std::to_string(draw_.integer(1, max_window));
    }
    windows += "]";
    return "{\"op\":\"evaluate\",\"spec\":\"" + spec->escaped +
           "\",\"windows\":" + windows + ",\"solver\":\"" + solver.name + "\"";
  }

  Draw draw_;
  Draw unseen_{0};
  std::vector<Spec> popular_;
  std::vector<double> popularity_;
};

/// Phase `index` of round `round`: Poisson arrivals at `rate` for
/// `duration` seconds, each a request drawn from the plan, on a random
/// connection.  Arrival times, connections and requests derive from
/// (seed, index) alone, so every round's phase `index` carries the same
/// stream; only the never-seen specs derive from the round too, so they
/// stay new in every round.  Request ids carry the round.
Phase make_phase(Plan& plan, std::uint64_t seed, int round, int index,
                 std::string name, double rate, double duration) {
  const std::uint64_t salt = 1000 + static_cast<std::uint64_t>(index);
  plan.reseed(mix_seed(seed, salt),
              mix_seed(seed, salt + (3u << 20) +
                                 static_cast<std::uint64_t>(round) * 16));
  Draw conn(mix_seed(seed, salt + (1u << 20)));
  Phase p;
  p.name = std::move(name);
  p.rate = rate;
  const std::string prefix =
      std::to_string(round) + "-" + std::to_string(index) + "-";
  std::size_t i = 0;
  for (double due : poisson_arrivals(mix_seed(seed, salt + (2u << 20)), rate,
                                     duration)) {
    Request r = plan.next(prefix + std::to_string(i++));
    r.due = due;
    r.conn = conn.integer(0, kConnections - 1);
    p.requests.push_back(std::move(r));
  }
  return p;
}

std::string rung_name(double rate) {
  return "rate" + std::to_string(static_cast<int>(rate));
}

struct Outcome {
  double due_us = 0.0;
  double done_us = -1.0;  // < 0: no reply
  bool ok = false;
  std::size_t bytes = 0;
  std::string reply;  // kept for evaluate and dimension (reply check)
};

struct PhaseResult {
  std::vector<Outcome> outcomes;
  double lateness_p99_us = 0.0;
  std::size_t backlog_max = 0;
  bool backlog_growing = false;
  double elapsed_s = 0.0;
};

/// Client side of one connection: non-blocking socket, pending output,
/// partial input, and the FIFO of requests awaiting a reply.
struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> waiting;
};

int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Writes what the socket takes now; returns false on a hard error.
bool flush_some(Conn& c) {
  while (c.out_off < c.out.size()) {
    const ssize_t w =
        ::write(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off);
    if (w < 0) return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
    c.out_off += static_cast<std::size_t>(w);
  }
  c.out.clear();
  c.out_off = 0;
  return true;
}

/// Reads what the socket has now.
void read_some(Conn& c) {
  char buf[65536];
  for (;;) {
    const ssize_t got = ::read(c.fd, buf, sizeof(buf));
    if (got <= 0) return;
    c.in.append(buf, static_cast<std::size_t>(got));
  }
}

/// `{"id":"0-0-12","op":"evaluate","ok":true` — the start of a good reply.
std::string ok_prefix(const std::string& line, Op op) {
  const std::size_t at = line.rfind(",\"id\":");
  const std::string id = line.substr(at + 6, line.size() - at - 7);
  return "{\"id\":" + id + ",\"op\":\"" + kOpNames[op] + "\",\"ok\":true";
}

class ServeSection final : public Section {
 public:
  explicit ServeSection(const Config& config) : config_(config) {}
  ~ServeSection() override { stop(); }
  ServeSection(const ServeSection&) = delete;
  ServeSection& operator=(const ServeSection&) = delete;

  [[nodiscard]] std::string name() const override { return "serve-mixed"; }

  void prepare() override {
    plan_ = std::make_unique<Plan>(config_.seed);
    start_server();
    for (const std::string& reply : exchange(plan_->warmup_lines())) {
      if (reply.find("\"ok\":true") == std::string::npos) {
        throw std::runtime_error("serve warm-up request failed: " + reply);
      }
    }
    // The server turns the global metrics registry on; it is on only
    // while this section measures (the CLI paths run with it off).
    obs::MetricsRegistry::global().set_enabled(false);
  }

  void round(bool emphasized, Report& report, SpanLog& spans) override {
    obs::MetricsRegistry::global().set_enabled(true);
    const int r = rounds_++;
    if (spans.enabled()) (void)drain_traces();

    // Nominal rate: the per-op latencies.
    Phase nominal = make_phase(*plan_, config_.seed, r, 0, "nominal",
                               kNominalRate,
                               emphasized ? 2 * kNominalSeconds
                                          : kNominalSeconds);
    const serve::CacheStats cache0 = server_->cache_stats();
    const std::uint64_t heap0 = solver::Workspace::total_heap_allocations();
    const PhaseResult result = run_phase(nominal);
    const serve::CacheStats cache1 = server_->cache_stats();
    heap_allocations_ += solver::Workspace::total_heap_allocations() - heap0;
    cache_hits_ += cache1.hits - cache0.hits;
    cache_lookups_ +=
        (cache1.hits + cache1.misses) - (cache0.hits + cache0.misses);
    if (spans.enabled()) {
      add_request_spans(spans, nominal, result, drain_traces());
    }
    (void)account(nominal, result, report);
    auto& latency = round_latency_.emplace_back();
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      const Outcome& o = result.outcomes[i];
      if (!o.ok) continue;
      const Op op = nominal.requests[i].op;
      latency[op].push_back(o.done_us - o.due_us);
      reply_bytes_[op] += o.bytes;
      ++replies_[op];
    }
    lateness_p99_.push_back(result.lateness_p99_us);
    backlog_max_ = std::max(backlog_max_, result.backlog_max);
    if (first_nominal_.requests.empty()) first_nominal_ = std::move(nominal);

    // serve.max_rate_rps is a per-layer metric: the traced run climbs
    // the ladder once, in its first round.
    if (spans.enabled() && r == 0) climb_ladder(report);
    obs::MetricsRegistry::global().set_enabled(false);
  }

  void finish(Report& report, SpanLog& spans) override {
    // Latencies pool the calmest third of the rounds (at least two),
    // ranked by their evaluate p99: a host stall of a few milliseconds
    // delays every request due during it, which is enough to decide a
    // round's p99 (see kFastQuantile).  Every round's nominal phase
    // carries the same requests, apart from its own never-seen specs,
    // so the ranking selects on the host's state rather than on the
    // draw.  The same rounds serve every op.  A program stall that
    // strikes fewer than about one round in three is ranked out too.
    std::vector<std::pair<double, std::size_t>> by_tail;
    for (std::size_t r = 0; r < round_latency_.size(); ++r) {
      by_tail.emplace_back(quantile(round_latency_[r][kEvaluate], 0.99), r);
    }
    std::sort(by_tail.begin(), by_tail.end());
    const std::size_t pooled = std::min(
        by_tail.size(), std::max<std::size_t>(2, (by_tail.size() + 2) / 3));
    std::vector<double> latency[kNumOps];
    for (std::size_t i = 0; i < pooled; ++i) {
      for (int op = 0; op < kNumOps; ++op) {
        const std::vector<double>& lat = round_latency_[by_tail[i].second][op];
        latency[op].insert(latency[op].end(), lat.begin(), lat.end());
      }
    }
    report.note("serve latencies pool " + std::to_string(pooled) + " of " +
                std::to_string(round_latency_.size()) + " rounds");
    for (Op op : {kEvaluate, kDimension}) {
      const std::string base = std::string("serve.") + kOpNames[op];
      const std::vector<double>& lat = latency[op];
      report.set(base + ".p50_us", median(lat), "us", lat.size());
      const auto tail = tail_percentile(lat);
      report.check(tail.has_value(),
                   base + ": too few samples for a tail percentile");
      if (!tail) continue;
      report.set(base + ".p99_us", tail->value, "us", tail->samples);
      report.note(base + ".p99_us reports p" +
                  std::to_string(tail->level * 100.0) + " (" +
                  std::to_string(tail->beyond) + " samples beyond it, n=" +
                  std::to_string(tail->samples) + ")");
    }
    report.set("gen.lateness.p99_us", median(lateness_p99_), "us",
               lateness_p99_.size());
    report.set("gen.backlog.max", static_cast<double>(backlog_max_), "count",
               rounds_);
    if (!spans.enabled()) return;

    report.set("serve.max_rate_rps", max_rate_, "1/s", rungs_run_);
    report.set("serve.cache.lookups", static_cast<double>(cache_lookups_),
               "count", 1);
    report.set("serve.cache.hit_ratio",
               cache_lookups_ == 0 ? 0.0
                                   : static_cast<double>(cache_hits_) /
                                         static_cast<double>(cache_lookups_),
               "ratio", cache_lookups_);
    report.set("solver.workspace.heap_allocations",
               static_cast<double>(heap_allocations_), "count", 1);
    for (int op = 0; op < kNumOps; ++op) {
      const std::size_t n = replies_[op];
      report.set(std::string("serve.reply.bytes.") + kOpNames[op],
                 n == 0 ? 0.0
                        : static_cast<double>(reply_bytes_[op]) /
                              static_cast<double>(n),
                 "bytes", n);
    }
    const std::vector<double> self = spans.per_op_self_us("serve.request");
    std::size_t ok_replies = 0;
    for (std::size_t n : replies_) ok_replies += n;
    report.check(self.size() * 10 >= ok_replies * 9,
                 "server traces cover under 90% of the nominal requests");
    report.set("serve.transport.self_p50_us", median(self), "us", self.size());
    report.set("serve.transport.self_p99_us", quantile(self, 0.99), "us",
               self.size());
    // The workspace_lease stage is left out: it takes well under the
    // server's 1 us span resolution, so it would read 0 on every run;
    // solver.workspace.acquire.ns measures the lease directly.
    for (const char* stage :
         {"queue", "parse", "cache_lookup", "solve", "search"}) {
      const std::vector<double> us =
          spans.per_op_self_us(std::string("server.") + stage);
      const std::string base = std::string("serve.stage.") + stage;
      report.set(base + ".p50_us", median(us), "us", us.size());
      report.set(base + ".p99_us", quantile(us, 0.99), "us", us.size());
    }
    layer_metrics(report, spans);
    if (config_.workload == name()) trace_overhead(report, spans);
  }

 private:
  /// Runs the ladder's rates in ascending order until one misses the
  /// limit; serve.max_rate_rps is the highest rate that met it (0 when
  /// none did).  A rate meets the limit when the p99 of all its
  /// requests stays under kLatencyLimitUs, none failed and the backlog
  /// did not grow.
  void climb_ladder(Report& report) {
    for (std::size_t k = 0; k < std::size(kLadder); ++k) {
      const Phase phase =
          make_phase(*plan_, config_.seed, 0, static_cast<int>(k) + 1,
                     rung_name(kLadder[k]), kLadder[k], kRungSeconds);
      const PhaseResult res = run_phase(phase);
      (void)drain_traces();
      ++rungs_run_;
      const bool clean = account(phase, res, report);
      std::vector<double> all;
      for (const Outcome& o : res.outcomes) {
        // A failed or refused request misses the limit.
        all.push_back(o.ok ? o.done_us - o.due_us : 1e12);
      }
      const double p99 = tail_percentile(all).value_or(Tail{}).value;
      const bool pass = clean && !res.backlog_growing && p99 < kLatencyLimitUs;
      report.note("serve " + phase.name + ": p99 of all ops " +
                  std::to_string(p99) + " us " +
                  (pass ? "meets" : "misses") + " the limit");
      if (!pass) return;
      max_rate_ = phase.rate;
    }
  }

  void start_server() {
    serve::ServeOptions options;
    options.threads = kWorkers;
    options.cache_capacity = kCacheCapacity;
    // Room for a whole phase of request traces between drains.
    options.trace_capacity = 1u << 15;
    server_ = std::make_unique<serve::Server>(options);
    auto ready = std::make_shared<std::promise<bool>>();
    auto signalled = std::make_shared<std::atomic<bool>>(false);
    std::future<bool> ready_future = ready->get_future();
    server_thread_ = std::thread([this, ready, signalled] {
      const int rc = server_->serve_unix(config_.socket_path, [&] {
        if (!signalled->exchange(true)) ready->set_value(true);
      });
      if (!signalled->exchange(true)) ready->set_value(rc == 0);
    });
    if (ready_future.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready ||
        !ready_future.get()) {
      throw std::runtime_error("server did not start on " +
                               config_.socket_path);
    }
    for (Conn& c : conns_) {
      c = Conn{};
      c.fd = connect_unix(config_.socket_path);
      if (c.fd < 0) {
        throw std::runtime_error("cannot connect to " + config_.socket_path);
      }
    }
  }

  void stop() {
    if (server_thread_.joinable()) {
      // The accept loop ends only on a shutdown op (or a signal), so a
      // set-up that failed before connecting still sends one.
      if (conns_[0].fd < 0) conns_[0].fd = connect_unix(config_.socket_path);
      if (conns_[0].fd >= 0) (void)exchange({"{\"op\":\"shutdown\"}"});
      for (Conn& c : conns_) {
        if (c.fd >= 0) ::close(c.fd);
        c.fd = -1;
      }
      server_thread_.join();
    }
    server_.reset();
    // The server turns the global metrics registry on; the other
    // sections measure with it off, as the CLI runs.
    obs::MetricsRegistry::global().set_enabled(false);
  }

  /// Pipelines `lines` on connection 0 and returns their replies (an
  /// empty string for a reply that never came).  A closed loop of one
  /// request at a time would wait out the server's 50 ms read timeout
  /// per request; a pipelined batch waits it out once.
  std::vector<std::string> exchange(const std::vector<std::string>& lines) {
    Conn& c = conns_[0];
    for (const std::string& l : lines) {
      c.out += l;
      c.out.push_back('\n');
    }
    std::vector<std::string> replies;
    const double deadline = now_us() + 60e6;
    while (replies.size() < lines.size() && now_us() < deadline) {
      if (!flush_some(c)) break;
      pollfd p{c.fd, static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
               0};
      ::poll(&p, 1, 100);
      read_some(c);
      for (std::size_t nl; replies.size() < lines.size() &&
                           (nl = c.in.find('\n')) != std::string::npos;) {
        replies.push_back(c.in.substr(0, nl));
        c.in.erase(0, nl + 1);
      }
    }
    replies.resize(lines.size());
    return replies;
  }

  /// Drains the server's request traces through the `trace` op.
  std::vector<serve::RequestTrace> drain_traces() {
    std::vector<serve::RequestTrace> out;
    for (int guard = 0; guard < 64; ++guard) {
      const std::string reply =
          exchange({"{\"op\":\"trace\",\"limit\":4096,\"id\":\"drain\"}"})[0];
      const auto doc = obs::parse_json(reply);
      const obs::JsonValue* result = doc ? doc->find("result") : nullptr;
      const obs::JsonValue* traces = result ? result->find("traces") : nullptr;
      if (traces == nullptr || !traces->is_array()) break;
      for (const obs::JsonValue& t : traces->array) {
        serve::RequestTrace rt;
        rt.id = std::string(t.string_or("id", ""));
        rt.op = std::string(t.string_or("op", ""));
        if (const obs::JsonValue* s = t.find("spans"); s && s->is_array()) {
          for (const obs::JsonValue& sp : s->array) {
            rt.spans.push_back(
                {std::string(sp.string_or("name", "")),
                 static_cast<std::uint64_t>(sp.number_or("start_us", 0)),
                 static_cast<std::uint64_t>(sp.number_or("dur_us", 0))});
          }
        }
        out.push_back(std::move(rt));
      }
      if (traces->array.empty() || result->number_or("buffered", 0) == 0) break;
    }
    return out;
  }

  PhaseResult run_phase(const Phase& phase) {
    PhaseResult res;
    const std::size_t n = phase.requests.size();
    res.outcomes.resize(n);
    std::vector<double> lateness;
    lateness.reserve(n);
    std::vector<std::size_t> backlog;  // outstanding requests at each send
    backlog.reserve(n);
    const double t0 = now_us() + 2000.0;
    std::size_t next = 0;
    std::size_t replied = 0;
    double last_progress = now_us();
    while (replied < n) {
      const double now = now_us();
      while (next < n && t0 + phase.requests[next].due * 1e6 <= now) {
        const Request& r = phase.requests[next];
        Outcome& o = res.outcomes[next];
        o.due_us = t0 + r.due * 1e6;
        lateness.push_back(now - o.due_us);
        Conn& c = conns_[r.conn];
        c.out.append(r.line);
        c.out.push_back('\n');
        c.waiting.push_back(next);
        ++next;
        backlog.push_back(next - replied);
      }
      pollfd fds[kConnections];
      for (int i = 0; i < kConnections; ++i) {
        Conn& c = conns_[i];
        (void)flush_some(c);
        fds[i] = {c.fd,
                  static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                  0};
      }
      double wait_us = 50000.0;
      if (next < n) {
        wait_us = std::max(0.0, t0 + phase.requests[next].due * 1e6 - now_us());
      }
      const timespec ts{static_cast<time_t>(wait_us / 1e6),
                        static_cast<long>(std::fmod(wait_us, 1e6) * 1000.0)};
      ::ppoll(fds, kConnections, &ts, nullptr);
      for (int i = 0; i < kConnections; ++i) {
        if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = conns_[i];
        read_some(c);
        std::size_t start = 0;
        for (std::size_t nl; !c.waiting.empty() &&
                             (nl = c.in.find('\n', start)) != std::string::npos;
             start = nl + 1) {
          const std::size_t idx = c.waiting.front();
          c.waiting.pop_front();
          const Request& r = phase.requests[idx];
          Outcome& o = res.outcomes[idx];
          o.done_us = now_us();
          o.bytes = nl - start;
          o.ok = c.in.compare(start, ok_prefix(r.line, r.op).size(),
                              ok_prefix(r.line, r.op)) == 0;
          if (r.op == kEvaluate || r.op == kDimension || !o.ok) {
            o.reply.assign(c.in, start, nl - start);
          }
          ++replied;
          last_progress = o.done_us;
        }
        c.in.erase(0, start);
      }
      if (next == n && now_us() - last_progress > 30e6) break;  // lost replies
    }
    for (Conn& c : conns_) c.waiting.clear();
    res.elapsed_s = (now_us() - t0) / 1e6;
    res.lateness_p99_us = quantile(lateness, 0.99);
    // Over capacity: the outstanding count climbs through the phase
    // instead of hovering.
    const std::size_t third = backlog.size() / 3;
    double first = 0.0;
    double last = 0.0;
    for (std::size_t i = 0; i < third; ++i) {
      first += static_cast<double>(backlog[i]);
      last += static_cast<double>(backlog[backlog.size() - 1 - i]);
    }
    for (std::size_t b : backlog) {
      res.backlog_max = std::max(res.backlog_max, b);
    }
    res.backlog_growing =
        third > 0 && last / third > 2.0 * first / third + 16.0;
    return res;
  }

  /// Per-op sent/succeeded/failed of one phase, plus the reply check:
  /// every evaluate and dimension reply must be byte-equal to the reply
  /// a fresh single-worker Server gives for the same line.  Each
  /// request is one attempted operation.  Returns true when none failed.
  bool account(const Phase& phase, const PhaseResult& r, Report& report) {
    if (!fresh_) {
      serve::ServeOptions options;
      options.threads = 1;
      options.enable_metrics = false;
      fresh_ = std::make_unique<serve::Server>(options);
    }
    std::size_t sent[kNumOps] = {};
    std::size_t ok[kNumOps] = {};
    bool clean = true;
    for (std::size_t i = 0; i < r.outcomes.size(); ++i) {
      const Request& req = phase.requests[i];
      const Outcome& o = r.outcomes[i];
      ++sent[req.op];
      bool good = o.ok;
      std::string why = o.done_us < 0 ? "no reply" : o.reply.substr(0, 200);
      if (good && (req.op == kEvaluate || req.op == kDimension)) {
        auto it = expected_.find(req.key);
        if (it == expected_.end()) {
          std::string reply = fresh_->handle_line(req.key).json;
          const std::string null_id = "{\"id\":null,";
          if (reply.rfind(null_id, 0) == 0) reply.erase(0, null_id.size());
          it = expected_.emplace(req.key, std::move(reply)).first;
        }
        const std::size_t comma = o.reply.find(',');
        good = comma != std::string::npos &&
               o.reply.compare(comma + 1, std::string::npos, it->second) == 0;
        why = "reply differs from a fresh single-worker server";
      }
      if (good) ++ok[req.op];
      report.check(good, "serve " + phase.name + " " + kOpNames[req.op] +
                             " #" + std::to_string(i) + ": " + why);
      clean = clean && good;
    }
    std::string line =
        "serve " + phase.name + " offered " +
        std::to_string(static_cast<int>(phase.rate)) + "/s over " +
        std::to_string(r.elapsed_s) + " s: generator lateness p99 " +
        std::to_string(r.lateness_p99_us) + " us, backlog max " +
        std::to_string(r.backlog_max) +
        (r.backlog_growing ? " and growing (over capacity)" : "") + ";";
    for (int op = 0; op < kNumOps; ++op) {
      line += std::string(" ") + kOpNames[op] + " " + std::to_string(sent[op]) +
              "/" + std::to_string(ok[op]) + "/" +
              std::to_string(sent[op] - ok[op]);
    }
    report.note(line + " (sent/succeeded/failed)");
    return clean;
  }

  /// Client request spans with the server's stage spans (drained
  /// through the trace op) as children: a request's self time is what
  /// no server stage covers — generator lateness, transport both ways,
  /// reply write and flush.  Only requests whose trace came back get a
  /// span.
  static void add_request_spans(
      SpanLog& spans, const Phase& phase, const PhaseResult& result,
      const std::vector<serve::RequestTrace>& traces) {
    // Server spans are on the process-wide window clock, whose zero is
    // its first use; shift them onto now_us().
    const double offset =
        now_us() - static_cast<double>(obs::steady_window_clock().now_us());
    std::unordered_map<std::string, std::size_t> by_id;
    for (std::size_t i = 0; i < phase.requests.size(); ++i) {
      const std::string& line = phase.requests[i].line;
      const std::size_t at = line.rfind(",\"id\":\"");
      by_id.emplace(line.substr(at + 7, line.size() - at - 9), i);
    }
    for (const serve::RequestTrace& t : traces) {
      const auto it = by_id.find(t.id);
      if (it == by_id.end()) continue;
      const Outcome& o = result.outcomes[it->second];
      if (!o.ok) continue;
      SpanLog::Span req;
      req.name = "serve.request";
      req.start = o.due_us;
      req.end = o.done_us;
      req.request = spans.spans().size() + 1;
      const long parent = spans.add(req);
      for (const serve::RequestSpan& s : t.spans) {
        SpanLog::Span child;
        child.name = "server." + s.name;
        child.start = static_cast<double>(s.start_us) + offset;
        child.end = static_cast<double>(s.start_us + s.dur_us) + offset;
        child.parent = parent;
        child.request = req.request;
        spans.add(child);
      }
    }
  }

  /// Direct calls into each front-end layer, on this run's corpus.
  void layer_metrics(Report& report, SpanLog& spans) {
    constexpr int kReps = 5;
    std::vector<cli::NetworkSpec> parsed;
    double spec_bytes = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      for (const Spec& s : plan_->popular()) {
        cli::NetworkSpec p;
        {
          SpanLog::Scope sc(spans, "cli.parse_network_spec");
          p = cli::parse_network_spec(s.text);
        }
        if (rep > 0) continue;
        parsed.push_back(std::move(p));
        spec_bytes += static_cast<double>(s.text.size());
      }
    }
    const auto [parse_us, parse_ops] =
        spans.total_self_us("cli.parse_network_spec");
    report.set("cli.parse_spec.ns_per_byte",
               parse_us * 1000.0 / (spec_bytes * kReps), "ns/byte", parse_ops);

    for (int rep = 0; rep < kReps; ++rep) {
      for (const cli::NetworkSpec& p : parsed) {
        std::string text;
        {
          SpanLog::Scope sc(spans, "cli.render_network_spec");
          text = cli::render_network_spec(p);
        }
        report.check(!text.empty(), "render_network_spec produced no text");
      }
    }
    const std::vector<double> render =
        spans.per_op_self_us("cli.render_network_spec");
    report.set("cli.render_spec.us", median(render), "us", render.size());

    double cells = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      for (const cli::NetworkSpec& p : parsed) {
        const core::WindowProblem problem(p.topology, p.classes);
        const qn::NetworkModel model =
            problem.network(problem.kleinrock_windows()).to_model();
        SpanLog::Scope sc(spans, "qn.compile");
        const qn::CompiledModel m = qn::CompiledModel::compile(model);
        if (rep == 0) cells += static_cast<double>(m.cell_count());
      }
    }
    const std::vector<double> compile = spans.per_op_self_us("qn.compile");
    const auto [compile_us, compile_ops] = spans.total_self_us("qn.compile");
    report.set("qn.compile.us", median(compile), "us", compile.size());
    report.set("qn.compile.ns_per_cell",
               compile_us * 1000.0 / (cells * kReps), "ns/cell", compile_ops);

    const Phase& phase = first_nominal_;
    const std::size_t lines =
        std::min<std::size_t>(2000, phase.requests.size());
    for (std::size_t i = 0; i < lines; ++i) {
      bool ok = false;
      {
        SpanLog::Scope sc(spans, "serve.parse_request");
        ok = serve::parse_request(phase.requests[i].line).ok();
      }
      report.check(ok, "parse_request rejected a benchmark line");
    }
    const std::vector<double> parse_req =
        spans.per_op_self_us("serve.parse_request");
    report.set("serve.protocol.parse_request.ns", median(parse_req) * 1000.0,
               "ns", parse_req.size());

    serve::ModelCache cache(kCacheCapacity);
    for (const Spec& s : plan_->popular()) {
      SpanLog::Scope sc(spans, "serve.cache.lookup_miss");
      (void)cache.lookup_or_compile(s.text);
    }
    for (int rep = 0; rep < 3; ++rep) {
      for (const Spec& s : plan_->popular()) {
        SpanLog::Scope sc(spans, "serve.cache.lookup_hit");
        (void)cache.lookup_or_compile(s.text);
      }
    }
    const std::vector<double> miss =
        spans.per_op_self_us("serve.cache.lookup_miss");
    const std::vector<double> hit =
        spans.per_op_self_us("serve.cache.lookup_hit");
    report.set("serve.cache.lookup_miss.us", median(miss), "us", miss.size());
    report.set("serve.cache.lookup_hit.ns", median(hit) * 1000.0, "ns",
               hit.size());

    solver::WorkspacePool pool;
    { auto warm = pool.acquire(); }
    constexpr int kLeases = 20000;
    {
      SpanLog::Scope sc(spans, "solver.workspace.acquire");
      for (int i = 0; i < kLeases; ++i) {
        auto lease = pool.acquire();
      }
      sc.set_count(kLeases);
    }
    const std::vector<double> acquire =
        spans.per_op_self_us("solver.workspace.acquire");
    report.set("solver.workspace.acquire.ns", median(acquire) * 1000.0, "ns",
               kLeases);

    // One solve per registry solver in the mix, on the spec shape the
    // mix sends it: CANADA 4-class, or a one-chain line for buzen.
    const core::WindowProblem canada4(net::canada_topology(),
                                      net::four_class_traffic(6, 6, 6, 12));
    const Spec* single = nullptr;
    for (const Spec& s : plan_->popular()) {
      if (s.chains == 1) single = &s;
    }
    const cli::NetworkSpec one = cli::parse_network_spec(single->text);
    const core::WindowProblem line1(one.topology, one.classes);
    solver::Workspace ws;
    for (const SolverMix& m : kSolvers) {
      const solver::Solver& solver =
          solver::SolverRegistry::instance().require(m.name);
      const bool one_chain = std::strcmp(m.name, "buzen") == 0;
      const qn::CompiledModel& model =
          one_chain ? line1.compiled() : canada4.compiled();
      const solver::PopulationVector population =
          one_chain ? solver::PopulationVector{3}
                    : solver::PopulationVector{2, 2, 2, 2};
      const std::string span = std::string("solver.") + m.name + ".solve";
      (void)solver.solve(model, population, ws);
      for (int i = 0; i < 200; ++i) {
        SpanLog::Scope sc(spans, span);
        (void)solver.solve(model, population, ws);
      }
      const std::vector<double> us = spans.per_op_self_us(span);
      report.set(span + ".us", median(us), "us", us.size());
    }
  }

  /// bench.trace_overhead_pct on the server's entry point over a fixed
  /// batch of evaluate lines, one span per request.
  void trace_overhead(Report& report, SpanLog& spans) {
    std::vector<std::string> lines;
    for (const Request& r : first_nominal_.requests) {
      if (r.op == kEvaluate) lines.push_back(r.line);
      if (lines.size() == 500) break;
    }
    const double pct = trace_overhead_pct(
        [&](SpanLog& log) {
          for (std::size_t i = 0; i < lines.size(); ++i) {
            SpanLog::Scope sc(log, "bench.overhead.request", -1, i + 1);
            (void)server_->handle_line(lines[i]);
          }
        },
        spans, 7);
    report.set("bench.trace_overhead_pct", pct, "%", 7);
  }

  const Config& config_;
  std::unique_ptr<Plan> plan_;
  int rounds_ = 0;
  Phase first_nominal_;  // the per-layer probes reuse its lines
  /// Per round, per op: latencies (us) of the nominal-rate ok replies.
  std::vector<std::array<std::vector<double>, kNumOps>> round_latency_;
  std::size_t reply_bytes_[kNumOps] = {};
  std::size_t replies_[kNumOps] = {};
  double max_rate_ = 0.0;  // highest ladder rate that met the limit
  std::size_t rungs_run_ = 0;
  std::vector<double> lateness_p99_;
  std::size_t backlog_max_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_lookups_ = 0;
  std::uint64_t heap_allocations_ = 0;
  std::unique_ptr<serve::Server> server_;
  std::thread server_thread_;
  Conn conns_[kConnections];
  std::unique_ptr<serve::Server> fresh_;
  std::unordered_map<std::string, std::string> expected_;  // key -> reply tail
};

}  // namespace

std::unique_ptr<Section> make_serve_section(const Config& config) {
  return std::make_unique<ServeSection>(config);
}

std::pair<std::uint64_t, std::uint64_t> serve_round_fingerprints(
    const Config& config, int round) {
  std::uint64_t shared = 1469598103934665603ull;  // FNV-1a
  std::uint64_t unseen = shared;
  const auto mix = [](std::uint64_t& h, const std::string& s) {
    for (unsigned char ch : s) h = (h ^ ch) * 1099511628211ull;
  };
  Plan plan(config.seed);
  const Phase p = make_phase(plan, config.seed, round, 0, "", kNominalRate,
                             kNominalSeconds);
  for (const Request& req : p.requests) {
    mix(shared, std::to_string(req.due) + ":" + std::to_string(req.conn) +
                    ":" + std::to_string(req.op) + ":" +
                    std::to_string(req.unseen));
    mix(req.unseen ? unseen : shared, req.key);
  }
  return {shared, unseen};
}

std::uint64_t serve_plan_fingerprint(const Config& config, int rounds) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  const auto mix = [&](const std::string& s) {
    for (unsigned char ch : s) h = (h ^ ch) * 1099511628211ull;
  };
  Plan plan(config.seed);
  const auto add = [&](const Phase& p) {
    for (const Request& req : p.requests) {
      mix(req.line);
      mix(std::to_string(req.due) + ":" + std::to_string(req.conn));
    }
  };
  for (int r = 0; r < rounds; ++r) {
    add(make_phase(plan, config.seed, r, 0, "", kNominalRate,
                   kNominalSeconds));
  }
  for (std::size_t k = 0; k < std::size(kLadder); ++k) {
    add(make_phase(plan, config.seed, 0, static_cast<int>(k) + 1, "",
                   kLadder[k], kRungSeconds));
  }
  return h;
}

}  // namespace perfbench
