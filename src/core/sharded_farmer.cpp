#include "core/sharded_farmer.hpp"

#include <stdexcept>

#include "common/hash.hpp"
#include "common/parallel.hpp"
#include "persist/checkpoint.hpp"
#include "persist/persister.hpp"

namespace farmer {

ShardedFarmer::ShardedFarmer(FarmerConfig cfg,
                             std::shared_ptr<const TraceDictionary> dict,
                             std::size_t shards, std::size_t apply_threads)
    : cfg_(cfg) {
  shards_.reserve(shards == 0 ? 1 : shards);
  for (std::size_t i = 0; i < std::max<std::size_t>(shards, 1); ++i)
    shards_.push_back(std::make_unique<Farmer>(cfg, dict));
  slices_.resize(shards_.size());
  // 0 = auto. More lanes than shards cannot be used: the shard slice is the
  // parallelism unit (splitting one slice would reorder a shard's stream).
  std::size_t lanes = apply_threads == 0 ? hardware_parallelism()
                                         : apply_threads;
  lanes = std::min(lanes, shards_.size());
  if (lanes > 1) pool_ = std::make_unique<WorkerPool>(lanes);
}

ShardedFarmer::~ShardedFarmer() = default;

std::size_t ShardedFarmer::apply_thread_count() const noexcept {
  return pool_ ? pool_->thread_count() : 1;
}

void ShardedFarmer::run_per_shard(
    const std::function<void(std::size_t)>& body) {
  if (pool_) {
    pool_->run(shards_.size(), body);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) body(s);
  }
}

std::size_t ShardedFarmer::shard_of(const TraceRecord& rec) const noexcept {
  return static_cast<std::size_t>(mix64(rec.process.value())) %
         shards_.size();
}

void ShardedFarmer::observe(const TraceRecord& rec) {
  shards_[shard_of(rec)]->observe(rec);
}

void ShardedFarmer::observe_batch(std::span<const TraceRecord> records) {
  if (records.empty()) return;
  ++apply_batches_;
  // Single shard: the whole span is one ordered slice — skip partitioning.
  if (shards_.size() == 1) {
    shards_[0]->observe_batch(records);
    return;
  }
  // Partition into contiguous per-shard slices, preserving stream order
  // within each shard (routing order == serial apply order). Copying the
  // records gives each shard a dense span for Farmer::observe_batch's
  // bulk-bookkeeping path; the buffers keep their capacity across batches.
  for (auto& s : slices_) s.clear();
  for (const TraceRecord& r : records) slices_[shard_of(r)].push_back(r);
  const auto apply_slice = [&](std::size_t s) {
    if (!slices_[s].empty()) shards_[s]->observe_batch(slices_[s]);
  };
  if (pool_) {
    // Shard state is task-disjoint, so concurrent slice applies touch no
    // shared mutable state; per-shard record order is unchanged, so the
    // result is byte-identical to the serial loop below.
    apply_parallel_records_ += records.size();
    pool_->run(shards_.size(), apply_slice);
  } else {
    for (std::size_t s = 0; s < shards_.size(); ++s) apply_slice(s);
  }
}

std::vector<Correlator> ShardedFarmer::correlators(FileId f) const {
  return merged_correlators(shards_, f, cfg_.correlator_capacity);
}

double ShardedFarmer::correlation_degree(FileId a, FileId b) const {
  return merged_correlation_degree(shards_, a, b);
}

double ShardedFarmer::semantic_similarity(FileId a, FileId b) const {
  return merged_semantic_similarity(shards_, a, b);
}

std::uint64_t ShardedFarmer::access_count(FileId f) const {
  return merged_access_count(shards_, f);
}

double ShardedFarmer::access_frequency(FileId pred, FileId succ) const {
  return merged_access_frequency(shards_, pred, succ);
}

MinerStats ShardedFarmer::stats() const {
  MinerStats total = merged_stats(shards_);
  total.shards = shards_.size();
  // Synchronous backend: state is always current, nothing is ever queued.
  // epoch/pending/cache counters stay at their explicit zero defaults and
  // shard_epochs stays empty (see the MinerStats field contract). The batch
  // apply path is the one async-looking thing this backend does own.
  total.apply_batches = apply_batches_;
  total.apply_parallel_records = apply_parallel_records_;
  return total;
}

void ShardedFarmer::save(const std::string& dir) {
  std::vector<const Farmer*> view;
  view.reserve(shards_.size());
  for (const auto& s : shards_) view.push_back(s.get());
  persist::write_checkpoint_dir(dir, stats().requests, cfg_,
                                shards_.front()->dictionary(), view);
}

void ShardedFarmer::load(const std::string& dir) {
  if (stats().requests != 0)
    throw std::logic_error("ShardedFarmer::load: miner has already ingested");
  persist::Recovery rec =
      persist::recover_dir(dir, cfg_, shards_.front()->dictionary());
  if (!rec.shard_blobs.empty()) {
    if (rec.shard_blobs.size() != shards_.size())
      throw std::runtime_error(
          "ShardedFarmer::load: checkpoint shard count mismatch");
    for (std::size_t s = 0; s < shards_.size(); ++s)
      persist::deserialize_shard(rec.shard_blobs[s], *shards_[s]);
  }
  observe_batch(rec.tail);
}

std::size_t ShardedFarmer::footprint_bytes() const noexcept {
  std::size_t bytes = sizeof(*this);
  for (const auto& s : shards_) bytes += s->footprint_bytes();
  return bytes;
}

}  // namespace farmer
