// Object storage device (OSD) model.
//
// A linear block address space with a first-fit extent allocator and a seek
// cost model. The layout experiments place files (objects) on OSDs either
// naively (creation order, arbitrary scatter) or grouped by FARMER
// correlation, then measure the sequentiality of replayed access runs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace farmer {

struct Extent {
  std::uint64_t start = 0;  ///< block address
  std::uint64_t length = 0; ///< blocks
  [[nodiscard]] std::uint64_t end() const noexcept { return start + length; }
};

class Osd {
 public:
  explicit Osd(std::uint64_t capacity_blocks)
      : capacity_(capacity_blocks) {
    free_.emplace(0, capacity_blocks);
  }

  /// Allocates `blocks` contiguously (first fit). Returns nullopt when no
  /// single free extent fits.
  std::optional<Extent> allocate(std::uint64_t blocks);

  /// Frees a previously allocated extent, merging it with free neighbours.
  void free_extent(Extent e);

  [[nodiscard]] std::uint64_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t allocated() const noexcept {
    return allocated_;
  }
  [[nodiscard]] std::size_t free_fragments() const noexcept {
    return free_.size();
  }

  /// Largest free extent (fragmentation indicator).
  [[nodiscard]] std::uint64_t largest_free() const noexcept;

  /// Seek distance between two block addresses (cost-model helper).
  [[nodiscard]] static std::uint64_t seek_distance(std::uint64_t a,
                                                   std::uint64_t b) noexcept {
    return a > b ? a - b : b - a;
  }

 private:
  std::uint64_t capacity_;
  std::uint64_t allocated_ = 0;
  std::map<std::uint64_t, std::uint64_t> free_;  ///< start -> length
};

/// Placement map: object -> (osd index, extent).
struct Placement {
  std::uint32_t osd = 0;
  Extent extent;
};

}  // namespace farmer
