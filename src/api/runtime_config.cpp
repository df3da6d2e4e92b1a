#include "api/runtime_config.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

// POSIX: the process environment, scanned for unknown FARMER_* names.
extern "C" char** environ;

namespace farmer {
namespace {

/// Parses FARMER_* variables and remembers every name it was asked for, so
/// the names from_env() accepts are exactly the ones it parses.
class EnvReader {
 public:
  // One positive integer in [1, max_value]; unset/empty leaves `out` alone.
  // Rejecting 0 is deliberate: every size-shaped option already uses 0 to
  // mean "disabled"/"backend default", so an explicit 0 in the environment
  // is a contradiction, not a setting.
  void parse_size(const char* var, std::size_t& out,
                  unsigned long max_value = 4096) {
    const char* s = get(var);
    if (!s) return;
    char* end = nullptr;
    errno = 0;
    const unsigned long n = std::strtoul(s, &end, 10);
    if (end == s || *end != '\0' || n == 0 || errno == ERANGE ||
        n > max_value)
      throw ConfigError(var, s,
                        "expected an integer in [1, " +
                            std::to_string(max_value) + "]");
    out = static_cast<std::size_t>(n);
  }

  // One fraction in (0, 1]; unset/empty leaves `out` alone.
  void parse_fraction(const char* var, double& out) {
    const char* s = get(var);
    if (!s) return;
    char* end = nullptr;
    errno = 0;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || errno == ERANGE || !(v > 0.0) || v > 1.0)
      throw ConfigError(var, s, "expected a fraction in (0, 1]");
    out = v;
  }

  void parse_string(const char* var, std::string& out) {
    if (const char* s = get(var)) out = s;
  }

  /// Throws ConfigError on the first set FARMER_* variable no parse_* call
  /// named: a misspelled or retired name must not silently run the default.
  /// Like an unset variable, an empty one changes nothing.
  void reject_unknown() const {
    for (char** e = environ; e && *e; ++e) {
      const std::string_view entry(*e);
      const std::size_t eq = entry.find('=');
      if (!entry.starts_with("FARMER_") || eq == std::string_view::npos ||
          eq + 1 == entry.size())
        continue;
      const std::string_view name = entry.substr(0, eq);
      if (std::ranges::find(known_, name) != known_.end()) continue;
      std::string list;
      for (const std::string_view k : known_) {
        if (!list.empty()) list += ", ";
        list += k;
      }
      throw ConfigError(std::string(name), std::string(entry.substr(eq + 1)),
                        "unknown FARMER_* variable (known: " + list + ")");
    }
  }

 private:
  const char* get(const char* var) {
    known_.emplace_back(var);
    const char* s = std::getenv(var);
    return s && *s ? s : nullptr;
  }

  std::vector<std::string_view> known_;
};

}  // namespace

RuntimeConfig RuntimeConfig::from_env() {
  RuntimeConfig rc;
  EnvReader env;
  env.parse_string("FARMER_MINER", rc.miner_backend);
  env.parse_size("FARMER_SHARDS", rc.miner.shards);
  env.parse_size("FARMER_INGEST_THREADS", rc.miner.ingest_threads);
  env.parse_size("FARMER_APPLY_THREADS", rc.miner.apply_threads);
  // Capacity knobs get a generous ceiling; 0 stays "disabled"/"default"
  // (parse_size rejects 0, matching the defaults already meaning that).
  env.parse_size("FARMER_MAX_PENDING", rc.miner.max_pending,
                 /*max_value=*/1u << 30);
  env.parse_string("FARMER_PERSIST_DIR", rc.miner.persist_dir);
  env.parse_size("FARMER_CHECKPOINT_INTERVAL",
                 rc.miner.checkpoint_interval_records,
                 /*max_value=*/1u << 30);
  env.parse_size("FARMER_WAL_GROUP_COMMIT", rc.miner.wal_group_commit,
                 /*max_value=*/1u << 30);

  env.parse_string("FARMER_PREDICTOR", rc.predictor);
  // The predictor options mirror the miner selection so "fpa" built through
  // the predictor factory mines on the env-selected backend.
  rc.predictor_options.miner_backend = rc.miner_backend;
  rc.predictor_options.miner = rc.miner;

  env.parse_string("FARMER_SCENARIO", rc.scenario);
  env.parse_size("FARMER_SERVE_WINDOWS", rc.serve_windows,
                 /*max_value=*/4096);
  env.parse_size("FARMER_SERVE_CACHE", rc.serve_cache,
                 /*max_value=*/1u << 24);

  env.parse_fraction("FARMER_BENCH_SCALE", rc.bench_scale);
  env.parse_size("FARMER_BENCH_FILES", rc.bench_files,
                 /*max_value=*/1u << 24);
  env.parse_string("FARMER_TRACE_DIR", rc.trace_dir);
  env.parse_size("FARMER_TRACE_TENANTS", rc.trace_tenants, /*max_value=*/4);
  env.parse_size("FARMER_TRACE_ROUNDS", rc.trace_rounds,
                 /*max_value=*/1u << 20);
  env.reject_unknown();
  return rc;
}

RuntimeConfig RuntimeConfig::from_env_or_exit() {
  try {
    return from_env();
  } catch (const ConfigError& e) {
    std::cerr << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace farmer
