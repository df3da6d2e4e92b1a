// Runtime-selectable prefetch predictors.
//
// `make_predictor("fpa" | "nexus" | "probgraph" | "sdgraph" | "ls" | "fs" |
// "recentpop" | "pbs" | "puls" | "none", cfg, dict, opts)` mirrors the
// MinerFactory (api/miner_factory.hpp): benches, examples and the serving
// harness select the prediction policy with a string (`FARMER_PREDICTOR=...`)
// instead of hand-constructing each predictor class. The predictors are a
// fixed table in predictor_factory.cpp; the CI smoke loop iterates
// `registered_predictors()` so every row is covered.
//
// "fpa" is the only predictor that owns a mining backend: it builds its
// CorrelationMiner through the MinerFactory from
// `PredictorOptions::miner_backend` + `PredictorOptions::miner`, so the
// full backend matrix (farmer/sharded/concurrent/nexus, with persistence)
// is reachable behind the Predictor interface with zero predictor-specific
// plumbing. The other predictors run with their own Config defaults.
//
// An unknown name throws std::invalid_argument listing the registered
// predictors.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/miner_factory.hpp"
#include "core/config.hpp"
#include "prefetch/predictor.hpp"
#include "trace/record.hpp"

namespace farmer {

/// Options for make_predictor(). A default-constructed PredictorOptions
/// builds "fpa" on the "farmer" backend with default MinerOptions.
struct PredictorOptions {
  /// Mining backend behind "fpa" (any registered MinerFactory name).
  /// Other predictors ignore it. Empty = "farmer".
  std::string miner_backend;
  /// MinerOptions handed to the MinerFactory when building "fpa"'s backend
  /// (shards, ingest threads, persistence, ...).
  MinerOptions miner;
};

/// Registered predictor names, sorted.
[[nodiscard]] std::vector<std::string> registered_predictors();

/// Constructs the predictor registered under `name`. Throws
/// std::invalid_argument on an unknown name or, for "fpa" (which mines
/// with them), an invalid `cfg` or unknown `opts.miner_backend`. The
/// returned predictor is exclusively owned; for "fpa" it owns its miner,
/// reachable read-only through Predictor::miner().
[[nodiscard]] std::unique_ptr<Predictor> make_predictor(
    std::string_view name, const FarmerConfig& cfg,
    std::shared_ptr<const TraceDictionary> dict,
    const PredictorOptions& opts = {});

}  // namespace farmer
