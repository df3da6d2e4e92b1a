// Measurement primitives shared by every workload: clocks, exact order
// statistics, the process gauges (peak RSS, CPU time) and the metric record
// main.cpp prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) noexcept {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Exact q-quantile with linear interpolation between order statistics
/// (numpy's default). 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Spread of a sample around its median: (q3 - q1) / median.
[[nodiscard]] double relative_iqr(const std::vector<double>& v);

/// One reported number. `samples` is how many measurements it summarises
/// (repetitions for a per-run rate, operations for a latency percentile);
/// `spread` is their relative_iqr when the value summarises repetitions.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  double spread = 0.0;
};

/// Peak resident set of this process (VmHWM), in bytes, since the start or
/// the last reset_peak_rss().
[[nodiscard]] std::uint64_t peak_rss_bytes();

/// Returns free heap memory to the system and restarts the VmHWM high-water
/// mark from the current resident set.
void reset_peak_rss();

/// User + system CPU seconds this process has consumed.
[[nodiscard]] double cpu_seconds();

/// Threads this process currently runs (/proc/self/status).
[[nodiscard]] std::uint64_t os_threads();

/// Total size of the regular files directly under `dir` whose names start
/// with `prefix` ("" = every file).
[[nodiscard]] std::uint64_t dir_bytes(const std::string& dir,
                                      const std::string& prefix = "");

}  // namespace perfbench
