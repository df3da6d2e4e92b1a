// Durability decorator for synchronous backends ("farmer", "sharded",
// "nexus"): WAL-append every record before applying it, checkpoint every
// interval, auto-recover from the persist directory on construction.
//
// The decorator preserves the synchronous single-threaded contract — the
// WAL append and the apply run on the caller's thread, so WAL order is
// apply order by construction and the durable prefix is always a prefix of
// the applied history. A checkpoint splits in two:
//
//   * at the cut (end of the observe call that crossed the interval, where
//     appended == applied), the WAL rotates and every shard is serialized
//     on the sharded backend's existing apply lanes (the factory's
//     ShardRunner; serially for "farmer" and "nexus"). After that nothing
//     reads live state again;
//   * the finished blobs go to the Persister's background writer, which
//     checksums, writes, fsyncs, renames and prunes while ingest resumes.
//
// Before it begins the next checkpoint the decorator waits for the previous
// write, so every cut lands on the interval: checkpoints are named
// CHECKPOINT.<k·interval> and recovery replays at most one interval of WAL.
// A failed write (or WAL sync) is latched by the Persister and rethrown
// from the next observe, observe_batch, flush or load; a call that throws
// that way has ingested nothing. flush() also waits for an in-flight
// write, so it is the point where a failure of the last checkpoint
// surfaces. The concurrent backend
// does NOT use this decorator: its WAL hooks live on the drain thread and
// its checkpoints serialize published COW snapshots on the same writer
// thread (see ConcurrentFarmer).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "api/correlation_miner.hpp"
#include "persist/persister.hpp"

namespace farmer {

class Farmer;

namespace persist {

/// Runs body(s) for every shard index s of the view, possibly concurrently
/// for distinct s, and returns once all finished. Called on the ingest
/// thread between batches.
using ShardRunner =
    std::function<void(const std::function<void(std::size_t)>& body)>;

class DurableMiner final : public CorrelationMiner {
 public:
  /// `shard_view` lists the Farmer shards inside `inner` in shard order
  /// (one entry for an unsharded backend) — the factory knows the concrete
  /// types and builds the view; this class only needs the serialization
  /// surface. `run_shards` serializes them at a checkpoint cut (empty =
  /// one after another on the caller's thread). Construction runs
  /// recovery: the newest valid checkpoint is deserialized into the shards
  /// and the WAL tail replayed through `inner`, so the miner resumes
  /// exactly where the durable prefix ended.
  DurableMiner(std::unique_ptr<CorrelationMiner> inner,
               std::vector<Farmer*> shard_view, FarmerConfig cfg,
               std::shared_ptr<const TraceDictionary> dict, Options opts,
               ShardRunner run_shards = {});

  void observe(const TraceRecord& rec) override;
  void observe_batch(std::span<const TraceRecord> records) override;
  /// inner flush, then waits for an in-flight checkpoint write and
  /// rethrows a latched persistence failure.
  void flush() override;

  [[nodiscard]] CorrelatorView snapshot(FileId f) const override {
    return inner_->snapshot(f);
  }
  [[nodiscard]] double correlation_degree(FileId a, FileId b) const override {
    return inner_->correlation_degree(a, b);
  }
  [[nodiscard]] double semantic_similarity(FileId a, FileId b) const override {
    return inner_->semantic_similarity(a, b);
  }
  [[nodiscard]] std::uint64_t access_count(FileId f) const override {
    return inner_->access_count(f);
  }
  [[nodiscard]] double access_frequency(FileId pred,
                                        FileId succ) const override {
    return inner_->access_frequency(pred, succ);
  }
  void score_candidates(FileId src, std::span<const Correlator> cands,
                        std::span<CandidateScore> out) const override {
    inner_->score_candidates(src, cands, out);
  }
  [[nodiscard]] MinerStats stats() const override { return inner_->stats(); }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  /// Keeps the factory-name contract: a persist-enabled "sharded" miner
  /// still reports "sharded".
  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }

  /// Checkpoints into an arbitrary directory (independent of the persist
  /// directory) by delegating to the wrapped backend.
  void save(const std::string& dir) override { inner_->save(dir); }

  /// Loads external state, then re-bases the persist directory on it: the
  /// WAL rotates to the loaded sequence and a covering checkpoint is
  /// written before load() returns, so subsequent crash recovery reproduces
  /// the loaded model plus whatever was ingested after.
  void load(const std::string& dir) override;

  /// The wrapped backend (tests).
  [[nodiscard]] const CorrelationMiner& inner() const noexcept {
    return *inner_;
  }

 private:
  void maybe_checkpoint();
  /// Serializes every shard at the cut and submits the blobs to the
  /// Persister's background writer.
  void checkpoint_now(std::uint64_t seq);

  std::unique_ptr<CorrelationMiner> inner_;
  std::vector<Farmer*> shard_view_;
  ShardRunner run_shards_;
  Persister persister_;
};

}  // namespace persist
}  // namespace farmer
