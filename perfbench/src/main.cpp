// farmer_perfbench — runs one benchmark workload and prints its provenance,
// a table of every figure with unit and sample count, and, as the last line,
// the result object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
//
// Usage: farmer_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                         [--workdir DIR] [--git-sha SHA]
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Shortest round-trip representation: every digit as measured.
std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

/// One row per metric; `iqr%` is the spread of the repetitions behind a
/// value, blank for single measurements.
void print_metrics(const char* title, const std::vector<Metric>& ms) {
  std::printf("%-34s %16s %-6s %10s %6s\n", title, "value", "unit", "samples",
              "iqr%");
  for (const Metric& m : ms) {
    std::printf("%-34s %16.6g %-6s %10llu", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    if (m.spread != 0.0) std::printf(" %6.2f", 100.0 * m.spread);
    std::printf("\n");
  }
}

void usage() {
  std::cerr << "usage: farmer_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--git-sha SHA]\n";
}

double parse_number(const std::string& flag, const std::string& v) {
  std::size_t used = 0;
  const double d = std::stod(v, &used);
  if (used != v.size() || !std::isfinite(d))
    throw std::invalid_argument(flag + ": not a number: " + v);
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  std::string git_sha = "unknown";
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      const std::string v = argv[++i];
      if (flag == "--workload") {
        opts.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        const double s = parse_number(flag, v);
        if (s < 0 || s != std::floor(s))
          throw std::invalid_argument("--seed must be a whole number");
        opts.seed = static_cast<std::uint64_t>(s);
      } else if (flag == "--seconds") {
        opts.seconds = parse_number(flag, v);
        if (opts.seconds <= 0)
          throw std::invalid_argument("--seconds must be positive");
      } else if (flag == "--trace") {
        if (v != "0" && v != "1")
          throw std::invalid_argument("--trace must be 0 or 1");
        opts.trace = v == "1";
      } else if (flag == "--workdir") {
        opts.workdir = v;
      } else if (flag == "--git-sha") {
        git_sha = v;
      } else {
        throw std::invalid_argument("unknown flag " + flag);
      }
    }
    if (!have_workload) throw std::invalid_argument("--workload is required");
  } catch (const std::exception& ex) {
    std::cerr << "farmer_perfbench: " << ex.what() << "\n";
    usage();
    return 2;
  }

  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(opts);
  } catch (const std::exception& ex) {
    std::cerr << "farmer_perfbench: " << opts.workload << ": " << ex.what()
              << "\n";
    return 1;
  }

  // Provenance.
  std::ostringstream prov;
  prov << "{\"provenance\": {\"nproc\": " << std::thread::hardware_concurrency()
       << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
       << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
       << ", \"git_sha\": " << json_string(git_sha)
       << ", \"trace\": " << (opts.trace ? 1 : 0)
       << ", \"seconds\": " << json_number(opts.seconds);
  for (const auto& [k, v] : out.info)
    prov << ", " << json_string(k) << ": " << json_string(v);
  prov << "}}";
  std::cout << prov.str() << "\n";

  // Human-readable figures.
  print_metrics("figure", out.figures);
  if (!out.attribution.empty()) {
    double total = 0.0;
    std::printf("\n%-34s %16s\n", "layer (traced self time)", "seconds");
    for (const auto& [layer, secs] : out.attribution) {
      std::printf("%-34s %16.6f\n", layer.c_str(), secs);
      total += secs;
    }
    std::printf("%-34s %16.6f\n", "= traced wall", total);
  }
  std::printf("\n");
  print_metrics(opts.trace ? "per-layer metric" : "end-to-end metric",
                out.metrics);
  for (const std::string& e : out.errors)
    std::printf("CHECK FAILED: %s\n", e.c_str());
  std::fflush(stdout);

  // The result line.
  std::ostringstream res;
  bool finite = true;
  res << "{\"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    finite = finite && std::isfinite(m.value);
    res << (i ? ", " : "") << json_string(m.name)
        << ": {\"value\": " << json_number(std::isfinite(m.value) ? m.value : 0)
        << ", \"unit\": " << json_string(m.unit) << "}";
  }
  res << "}}";
  const bool correct = out.correct() && finite;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", "
            << res.str().substr(1) << "\n";
  return 0;
}
