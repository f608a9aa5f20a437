// windim_perfbench: one process runs the serve, batch and scenario
// sections and writes a result document with every metric, its unit
// and sample count.  perfbench/run.py builds this program, runs it, and
// prints the result line.
//
//   windim_perfbench --workload=serve-mixed|batch-solve|scenario-grid
//                    --seed=N --seconds=S --trace=0|1 --out=PATH
//                    [--spans=PATH] [--socket=PATH]
//   windim_perfbench --unit
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace {

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

int usage() {
  std::cerr << "usage: windim_perfbench --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 --out=PATH [--spans=PATH] "
               "[--socket=PATH]\n"
               "       windim_perfbench --unit\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Config config;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::string value = arg.substr(arg.find('=') + 1);
    if (arg == "--unit") return run_unit_checks() == 0 ? 0 : 1;
    if (starts_with(arg, "--workload=")) {
      config.workload = value;
    } else if (starts_with(arg, "--seed=")) {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (starts_with(arg, "--seconds=")) {
      config.seconds = std::atof(value.c_str());
    } else if (starts_with(arg, "--trace=")) {
      config.trace = value == "1";
    } else if (starts_with(arg, "--out=")) {
      out_path = value;
    } else if (starts_with(arg, "--spans=")) {
      config.spans_path = value;
    } else if (starts_with(arg, "--socket=")) {
      config.socket_path = value;
    } else {
      return usage();
    }
  }
  if (config.workload != "serve-mixed" && config.workload != "batch-solve" &&
      config.workload != "scenario-grid") {
    std::cerr << "unknown workload '" << config.workload << "'\n";
    return usage();
  }
  if (!(config.seconds > 0.0) || out_path.empty()) return usage();
  if (config.socket_path.empty()) config.socket_path = "windim-perfbench.sock";
  config.threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));

  Report report;
  SpanLog spans(config.trace);
  try {
    // Set-up is repeated on fresh objects and its median reported, so
    // work moved into set-up shows.
    constexpr int kSetups = 9;
    std::vector<double> setup_s;
    std::vector<std::unique_ptr<Section>> sections;
    for (int k = 0; k < kSetups; ++k) {
      sections.clear();
      const double t0 = now_us();
      sections.push_back(make_serve_section(config));
      sections.push_back(make_batch_section(config));
      sections.push_back(make_grid_section(config));
      for (auto& s : sections) s->prepare();
      setup_s.push_back((now_us() - t0) / 1e6);
    }
    report.set("setup_s", median(setup_s), "s", setup_s.size());

    // Rounds until the measured time is spent: a round starts only if a
    // round as long as the longest so far still fits (at least two).
    const double start = now_us();
    double longest = 0.0;
    int rounds = 0;
    std::vector<double> section_s(sections.size(), 0.0);
    while (rounds < 2 || now_us() - start + longest <= config.seconds * 1e6) {
      const double t0 = now_us();
      for (std::size_t i = 0; i < sections.size(); ++i) {
        const double s0 = now_us();
        sections[i]->round(sections[i]->name() == config.workload, report,
                           spans);
        section_s[i] += (now_us() - s0) / 1e6;
      }
      longest = std::max(longest, now_us() - t0);
      ++rounds;
    }
    std::string line = "rounds: " + std::to_string(rounds) + " in " +
                       std::to_string((now_us() - start) / 1e6) + " s;";
    for (std::size_t i = 0; i < sections.size(); ++i) {
      line += " " + sections[i]->name() + " " + std::to_string(section_s[i]) +
              " s";
    }
    report.note(line);
    for (auto& s : sections) s->finish(report, spans);
    sections.clear();
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  if (config.trace && !config.spans_path.empty() &&
      !spans.write(config.spans_path)) {
    std::cerr << "error: cannot write " << config.spans_path << "\n";
    return 1;
  }
  std::ofstream out(out_path);
  out << report.to_json(config) << "\n";
  if (!out) {
    std::cerr << "error: cannot write " << out_path << "\n";
    return 1;
  }
  return 0;
}
