// Fixed name -> entry tables: the one lookup behind make_miner,
// make_predictor and scenario_spec.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace farmer {

/// An immutable table of named entries, sorted by name at construction.
/// `at` is the find-or-throw step every lookup shares; `names` is the
/// sorted list the registered_*() functions and --list-* flags print.
template <class Entry>
class NameTable {
 public:
  using Row = std::pair<std::string, Entry>;

  /// `kind` names what the table holds ("backend", "predictor", ...) in
  /// the unknown-name diagnostic.
  NameTable(std::string kind, std::vector<Row> rows)
      : kind_(std::move(kind)), rows_(std::move(rows)) {
    std::ranges::sort(rows_, {}, &Row::first);
  }

  /// The entry under `name`. Throws std::invalid_argument
  /// `unknown <kind> "<name>" (registered: a, b, ...)` otherwise.
  [[nodiscard]] const Entry& at(std::string_view name) const {
    const auto it = std::ranges::find(rows_, name, &Row::first);
    if (it != rows_.end()) return it->second;
    std::string known;
    for (const Row& row : rows_) {
      if (!known.empty()) known += ", ";
      known += row.first;
    }
    throw std::invalid_argument("unknown " + kind_ + " \"" +
                                std::string(name) + "\" (registered: " +
                                known + ")");
  }

  /// Every name, sorted.
  [[nodiscard]] std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(rows_.size());
    for (const Row& row : rows_) out.push_back(row.first);
    return out;
  }

 private:
  std::string kind_;
  std::vector<Row> rows_;
};

}  // namespace farmer
