// The "cluster" backend: a CorrelationMiner whose model state lives in N
// remote shard servers reached over message-passing transports.
//
// Partitioning is ShardedFarmer's, bit for bit: a record routes to shard
// `mix64(process) % N`, each shard server hosts one Farmer, and every
// query fetches per-shard raw data and folds it with the same merged_*
// arithmetic in the same shard order. "cluster over loopback answers
// byte-identically to sharded on the same trace" is therefore a structural
// property; the differential tests compare IEEE-754 bit patterns and
// serialized model blobs, not epsilons.
//
// Pipelining: observe_batch partitions the batch (preserving each stream's
// order), encodes one kObserveBatch request per touched shard and sends it
// WITHOUT waiting for the ack — up to `max_outstanding` requests ride the
// wire per shard. Because a shard server processes its connection FIFO, a
// query sent after those observes sees them applied; acks are retired
// opportunistically while awaiting any later response. flush() is the
// barrier: it retires every outstanding ack (and surfaces any deferred
// observe error) before returning.
//
// Failure contract: every await is bounded by `request_timeout`; on expiry
// the request frame is re-sent (same request id) up to `max_retries`
// times, then a std::runtime_error naming the shard and op is thrown. The
// server deduplicates by request id, so a retry that crosses a late ack
// never double-applies a batch — the fault-injection suite drives drops,
// duplicates, reorders, delays and severed connections against exactly
// this loop.
//
// Thread-safety: per-shard channel state is mutex-guarded, so concurrent
// producers and queriers are safe (they serialize per shard, like the
// sharded backend's ingest contract, but cross-shard operations proceed in
// parallel).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/correlation_miner.hpp"
#include "core/config.hpp"
#include "net/frame.hpp"
#include "net/shard_server.hpp"
#include "net/transport.hpp"

namespace farmer::net {

struct ClusterOptions {
  /// Per-attempt response deadline. Total worst-case latency of one
  /// request is (1 + max_retries) * request_timeout — bounded by design.
  std::chrono::milliseconds request_timeout{2000};
  /// Re-sends after the first attempt before giving up with an error.
  std::size_t max_retries = 2;
  /// Pipelining depth: un-acked requests allowed per shard channel before
  /// observe_batch awaits the oldest ack (bounds client memory).
  std::size_t max_outstanding = 64;
};

class ClusterMiner final : public CorrelationMiner {
 public:
  /// One transport per shard, in shard order. `local_servers` optionally
  /// transfers ownership of in-process ShardServers (the loopback factory
  /// path) so the backend is self-contained; a socket deployment passes
  /// only transports. Destruction closes every channel first, so owned
  /// servers drain and join promptly.
  ClusterMiner(FarmerConfig cfg,
               std::shared_ptr<const TraceDictionary> dict,
               std::vector<std::unique_ptr<Transport>> transports,
               ClusterOptions opts,
               std::vector<std::unique_ptr<ShardServer>> local_servers = {});
  ~ClusterMiner() override;

  void observe(const TraceRecord& rec) override;
  void observe_batch(std::span<const TraceRecord> records) override;
  /// Ingest barrier: every outstanding request on every shard is retired
  /// (retrying per the failure contract) and the shards' flush() has run.
  /// Throws the first deferred observe error, if any ack came back kError.
  void flush() override;

  [[nodiscard]] CorrelatorView snapshot(FileId f) const override;
  [[nodiscard]] double correlation_degree(FileId a, FileId b) const override;
  [[nodiscard]] double semantic_similarity(FileId a, FileId b) const override;
  [[nodiscard]] std::uint64_t access_count(FileId f) const override;
  [[nodiscard]] double access_frequency(FileId pred,
                                        FileId succ) const override;
  // score_candidates keeps the default loop: fusing it would need a batched
  // wire op the shard protocol does not have.

  [[nodiscard]] MinerStats stats() const override;
  [[nodiscard]] std::size_t footprint_bytes() const override;
  [[nodiscard]] const char* name() const noexcept override {
    return "cluster";
  }

  /// Checkpoints the remote model into `dir` by fetching every shard's
  /// serialized blob (kExportModel) and writing a standard checkpoint
  /// file — the same format ShardedFarmer::save produces, so a sharded
  /// miner can load() what a cluster saved. load() is not supported on the
  /// client (recovery belongs to the shard servers' persist directories).
  void save(const std::string& dir) override;

  /// Serialized model blob of shard `s` (persist::serialize_shard over the
  /// remote Farmer). The differential gate compares this byte-for-byte
  /// with serialize_shard(sharded.shard(s)).
  [[nodiscard]] std::string export_shard_model(std::size_t s) const;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return channels_.size();
  }

  /// Shard a record routes to — identical to ShardedFarmer::shard_of.
  [[nodiscard]] std::size_t shard_of(const TraceRecord& rec) const noexcept;

 private:
  struct Channel {
    std::mutex mu;
    std::unique_ptr<Transport> transport;
    std::uint64_t next_id = 1;  ///< monotone per connection — the server's
                                ///< duplicate detection relies on this
    /// Un-acked requests, id -> encoded frame (kept for retry re-sends).
    std::map<std::uint64_t, std::string> outstanding;
    /// First kError that came back for a pipelined request; thrown at the
    /// next flush() barrier.
    std::string deferred_error;
  };

  /// Encodes, registers and sends one request. Channel mutex held.
  std::uint64_t send_locked(Channel& ch, std::size_t shard, OpCode op,
                            std::string_view payload) const;
  /// Waits for the response to `id`, retiring any earlier pipelined acks
  /// that arrive first, re-sending on timeout per the failure contract.
  /// Channel mutex held. Returns the response payload.
  std::string await_locked(Channel& ch, std::size_t shard,
                           std::uint64_t id) const;
  /// One full round trip on shard `s`.
  std::string request(std::size_t s, OpCode op, std::string payload) const;

  FarmerConfig cfg_;
  std::shared_ptr<const TraceDictionary> dict_;
  ClusterOptions opts_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<ShardServer>> local_servers_;
};

}  // namespace farmer::net
