#include "persist/durable_miner.hpp"

#include <stdexcept>

#include "core/farmer.hpp"
#include "persist/checkpoint.hpp"

namespace farmer::persist {

DurableMiner::DurableMiner(std::unique_ptr<CorrelationMiner> inner,
                           std::vector<Farmer*> shard_view, FarmerConfig cfg,
                           std::shared_ptr<const TraceDictionary> dict,
                           Options opts, ShardRunner run_shards)
    : inner_(std::move(inner)),
      shard_view_(std::move(shard_view)),
      run_shards_(std::move(run_shards)),
      persister_(std::move(opts)) {
  if (shard_view_.empty())
    throw std::invalid_argument("DurableMiner: empty shard view");
  Recovery rec = persister_.open(cfg, std::move(dict));
  if (!rec.shard_blobs.empty()) {
    if (rec.shard_blobs.size() != shard_view_.size())
      throw std::runtime_error(
          "DurableMiner: checkpoint shard count mismatch (got " +
          std::to_string(rec.shard_blobs.size()) + ", want " +
          std::to_string(shard_view_.size()) + ")");
    for (std::size_t s = 0; s < shard_view_.size(); ++s)
      deserialize_shard(rec.shard_blobs[s], *shard_view_[s]);
  }
  if (!rec.tail.empty()) inner_->observe_batch(rec.tail);
}

void DurableMiner::observe(const TraceRecord& rec) {
  persister_.check();
  persister_.append(std::span<const TraceRecord>(&rec, 1));
  inner_->observe(rec);
  maybe_checkpoint();
}

void DurableMiner::observe_batch(std::span<const TraceRecord> records) {
  persister_.check();
  persister_.append(records);
  inner_->observe_batch(records);
  maybe_checkpoint();
}

void DurableMiner::flush() {
  inner_->flush();
  persister_.wait_checkpoint();
  persister_.check();
}

void DurableMiner::load(const std::string& dir) {
  persister_.wait_checkpoint();
  persister_.check();
  inner_->load(dir);
  const std::uint64_t seq = inner_->stats().requests;
  persister_.rebase(seq);
  checkpoint_now(seq);
  persister_.wait_checkpoint();
  persister_.check();
}

void DurableMiner::maybe_checkpoint() {
  if (!persister_.checkpoint_due()) return;
  // One write in flight at a time, so the cut below lands on the interval:
  // CHECKPOINT.<k·interval> names and the one-interval recovery bound.
  persister_.wait_checkpoint();
  // A write that failed meanwhile latched an error: checkpoint_due() now
  // says no, and the next call reports it without ingesting.
  if (persister_.checkpoint_due())
    checkpoint_now(persister_.begin_checkpoint());
}

void DurableMiner::checkpoint_now(std::uint64_t seq) {
  std::vector<std::string> blobs(shard_view_.size());
  const auto serialize = [&](std::size_t s) {
    blobs[s] = serialize_shard(*shard_view_[s]);
  };
  if (run_shards_) {
    run_shards_(serialize);
  } else {
    for (std::size_t s = 0; s < shard_view_.size(); ++s) serialize(s);
  }
  persister_.submit_checkpoint(
      seq, [blobs = std::move(blobs)]() mutable { return std::move(blobs); });
}

}  // namespace farmer::persist
