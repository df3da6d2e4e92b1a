// The benchmark's workloads and the metrics they report.
//
// A run generates its inputs from the seed, sets up, makes one untimed
// warm-up repetition, then repeats the workload for the requested seconds.
// Every repetition's output is checked against a reference computed outside
// the timed region; a mismatch or an exception counts that repetition's
// operations as failed. With tracing on, repetitions alternate between
// untraced and traced, so the layer costs come with the overhead of
// measuring them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/correlation_miner.hpp"
#include "measure.hpp"

namespace perfbench {

/// Decorates the miner under test (never a reference miner). Tests use it to
/// inject faults; identity when empty.
using MinerWrap = std::function<std::unique_ptr<farmer::CorrelationMiner>(
    std::unique_ptr<farmer::CorrelationMiner>)>;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured time after set-up and warm-up
  bool trace = false;     ///< report per-layer metrics instead of end-to-end
  std::string workdir = ".";  ///< parent of the persist directories
  double scale = 1.0;     ///< trace volume multiplier; < 1 only in tests
  MinerWrap wrap;
};

/// A metric name and unit, as BENCHMARK.json declares it.
struct MetricSpec {
  std::string name;
  std::string unit;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< one line per failed check
  /// The declared end-to-end metrics (untraced) or per-layer metrics
  /// (traced), in declaration order.
  std::vector<Metric> metrics;
  /// The workload's own named figures (ingest_rps, recover_s, ...), with
  /// sample counts, measured on untraced repetitions.
  std::vector<Metric> figures;
  /// Provenance and configuration, printed before the result.
  std::vector<std::pair<std::string, std::string>> info;
  /// Traced runs: self seconds per layer over the traced repetitions; the
  /// last row is the unattributed remainder, and the rows sum to the traced
  /// wall.
  std::vector<std::pair<std::string, double>> attribution;

  [[nodiscard]] bool correct() const noexcept {
    return failed == 0 && errors.empty();
  }
};

[[nodiscard]] const std::vector<std::string>& workload_names();
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Runs one workload. Throws std::invalid_argument on an unknown name.
[[nodiscard]] Outcome run_workload(const RunOptions& opts);

}  // namespace perfbench
