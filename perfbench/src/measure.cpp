#include "measure.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double relative_iqr(const std::vector<double>& v) {
  const double med = median(v);
  return med != 0.0 ? (quantile(v, 0.75) - quantile(v, 0.25)) / med : 0.0;
}

namespace {

/// Reads the numeric field `key` ("VmHWM:") of /proc/self/status.
std::uint64_t status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream fields(line.substr(key.size()));
    std::uint64_t v = 0;
    fields >> v;
    return v;
  }
  return 0;
}

}  // namespace

std::uint64_t peak_rss_bytes() { return status_field("VmHWM:") * 1024; }

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::uint64_t os_threads() { return status_field("Threads:"); }

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::uint64_t dir_bytes(const std::string& dir, const std::string& prefix) {
  namespace fs = std::filesystem;
  std::uint64_t total = 0;
  std::error_code ec;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (!e.is_regular_file(ec)) continue;
    if (e.path().filename().string().rfind(prefix, 0) != 0) continue;
    total += e.file_size(ec);
  }
  return total;
}

}  // namespace perfbench
