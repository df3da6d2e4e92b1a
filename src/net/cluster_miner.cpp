#include "net/cluster_miner.hpp"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "common/hash.hpp"
#include "core/sharded_farmer.hpp"
#include "net/protocol.hpp"
#include "persist/checkpoint.hpp"

namespace farmer::net {

namespace {

[[nodiscard]] std::string shard_tag(std::size_t shard, OpCode op) {
  return "cluster: shard " + std::to_string(shard) + " " + op_name(op);
}

}  // namespace

ClusterMiner::ClusterMiner(
    FarmerConfig cfg, std::shared_ptr<const TraceDictionary> dict,
    std::vector<std::unique_ptr<Transport>> transports, ClusterOptions opts,
    std::vector<std::unique_ptr<ShardServer>> local_servers)
    : cfg_(cfg),
      dict_(std::move(dict)),
      opts_(opts),
      local_servers_(std::move(local_servers)) {
  if (transports.empty())
    throw std::invalid_argument("ClusterMiner: needs at least one shard");
  channels_.reserve(transports.size());
  for (auto& t : transports) {
    auto ch = std::make_unique<Channel>();
    ch->transport = std::move(t);
    channels_.push_back(std::move(ch));
  }
}

ClusterMiner::~ClusterMiner() {
  // Close every channel first so owned loopback servers stop serving and
  // their threads join promptly in local_servers_'s destructor.
  for (auto& ch : channels_) ch->transport->close();
}

std::size_t ClusterMiner::shard_of(const TraceRecord& rec) const noexcept {
  return static_cast<std::size_t>(mix64(rec.process.value())) %
         channels_.size();
}

std::uint64_t ClusterMiner::send_locked(Channel& ch, std::size_t shard,
                                        OpCode op,
                                        std::string_view payload) const {
  const std::uint64_t id = ch.next_id++;
  auto [it, inserted] = ch.outstanding.emplace(
      id, encode_frame(FrameKind::kRequest, op, id, payload));
  if (!ch.transport->send(it->second))
    throw std::runtime_error(shard_tag(shard, op) + ": connection closed");
  return id;
}

std::string ClusterMiner::await_locked(Channel& ch, std::size_t shard,
                                       std::uint64_t id) const {
  std::size_t attempts = 0;
  auto deadline = std::chrono::steady_clock::now() + opts_.request_timeout;
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) {
      // The request or its response was lost. Re-send the identical frame
      // (same request id: the server deduplicates, so a batch is never
      // applied twice even when the original was merely slow).
      if (attempts >= opts_.max_retries)
        throw std::runtime_error(
            "cluster: shard " + std::to_string(shard) + ": no response after " +
            std::to_string(attempts + 1) + " attempts (timeout " +
            std::to_string(opts_.request_timeout.count()) + " ms)");
      ++attempts;
      if (!ch.transport->send(ch.outstanding.at(id)))
        throw std::runtime_error("cluster: shard " + std::to_string(shard) +
                                 ": connection closed");
      deadline = std::chrono::steady_clock::now() + opts_.request_timeout;
      continue;
    }
    auto msg = ch.transport->receive(
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now));
    if (!msg) {
      if (ch.transport->closed())
        throw std::runtime_error("cluster: shard " + std::to_string(shard) +
                                 ": connection closed");
      continue;  // timed out waiting; the deadline branch decides next
    }
    Frame resp;
    try {
      resp = decode_frame(*msg);
    } catch (const std::exception& e) {
      throw std::runtime_error("cluster: shard " + std::to_string(shard) +
                               ": corrupt response: " + e.what());
    }
    if (resp.kind != FrameKind::kResponse) continue;  // stray request: drop
    const auto found = ch.outstanding.find(resp.request_id);
    if (found == ch.outstanding.end()) continue;  // duplicate/stale response
    ch.outstanding.erase(found);
    if (resp.request_id == id) {
      if (resp.op == OpCode::kError)
        throw std::runtime_error("cluster: shard " + std::to_string(shard) +
                                 ": " + resp.payload);
      return std::move(resp.payload);
    }
    // Retired the ack of an earlier pipelined request. A failure there is
    // data loss, not a failure of the op being awaited — remember it for
    // the flush() barrier.
    if (resp.op == OpCode::kError && ch.deferred_error.empty())
      ch.deferred_error = "cluster: shard " + std::to_string(shard) +
                          ": deferred: " + resp.payload;
  }
}

std::string ClusterMiner::request(std::size_t s, OpCode op,
                                  std::string payload) const {
  Channel& ch = *channels_[s];
  std::lock_guard<std::mutex> lock(ch.mu);
  const std::uint64_t id = send_locked(ch, s, op, payload);
  return await_locked(ch, s, id);
}

void ClusterMiner::observe(const TraceRecord& rec) {
  observe_batch({&rec, 1});
}

void ClusterMiner::observe_batch(std::span<const TraceRecord> records) {
  const std::size_t n = channels_.size();
  // Partition preserving each stream's order — the same bucketing
  // ShardedFarmer::observe_batch performs.
  std::vector<std::vector<TraceRecord>> parts(n);
  for (const TraceRecord& r : records) parts[shard_of(r)].push_back(r);
  for (std::size_t s = 0; s < n; ++s) {
    if (parts[s].empty()) continue;
    Channel& ch = *channels_[s];
    std::lock_guard<std::mutex> lock(ch.mu);
    // Pipelining bound: retire the oldest ack once the window is full.
    while (ch.outstanding.size() >= opts_.max_outstanding)
      (void)await_locked(ch, s, ch.outstanding.begin()->first);
    (void)send_locked(ch, s, OpCode::kObserveBatch,
                      encode_observe_batch(parts[s]));
  }
}

void ClusterMiner::flush() {
  for (std::size_t s = 0; s < channels_.size(); ++s) {
    Channel& ch = *channels_[s];
    std::lock_guard<std::mutex> lock(ch.mu);
    (void)send_locked(ch, s, OpCode::kFlush, {});
    // FIFO per connection: awaiting oldest-first retires every pipelined
    // observe ack and finally the flush ack itself.
    while (!ch.outstanding.empty())
      (void)await_locked(ch, s, ch.outstanding.begin()->first);
    if (!ch.deferred_error.empty()) {
      std::string err = std::move(ch.deferred_error);
      ch.deferred_error.clear();
      throw std::runtime_error(err);
    }
  }
}

CorrelatorView ClusterMiner::snapshot(FileId f) const {
  // Concatenate per-shard lists in shard order, then run the exact
  // ShardedFarmer merge kernel — byte-identical fold by construction.
  std::vector<Correlator> merged;
  for (std::size_t s = 0; s < channels_.size(); ++s) {
    const std::vector<Correlator> list = decode_correlators(
        request(s, OpCode::kCorrelators, encode_file_query(f)));
    merged.insert(merged.end(), list.begin(), list.end());
  }
  return CorrelatorView(ShardedFarmer::merge_concatenated(
      std::move(merged), cfg_.correlator_capacity));
}

double ClusterMiner::correlation_degree(FileId a, FileId b) const {
  double best = 0.0;
  for (std::size_t s = 0; s < channels_.size(); ++s) {
    const PairQueryResult r = decode_pair_result(
        request(s, OpCode::kPairQuery, encode_pair_query(a, b)));
    best = std::max(best, r.correlation_degree);
  }
  return best;
}

double ClusterMiner::semantic_similarity(FileId a, FileId b) const {
  double best = 0.0;
  for (std::size_t s = 0; s < channels_.size(); ++s) {
    const PairQueryResult r = decode_pair_result(
        request(s, OpCode::kPairQuery, encode_pair_query(a, b)));
    best = std::max(best, r.semantic_similarity);
  }
  return best;
}

std::uint64_t ClusterMiner::access_count(FileId f) const {
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < channels_.size(); ++s)
    total += decode_u64(request(s, OpCode::kAccessCount,
                                encode_file_query(f)));
  return total;
}

double ClusterMiner::access_frequency(FileId pred, FileId succ) const {
  // Global F = sum_s N_AB,s / sum_s N_A,s — same accumulation order and
  // arithmetic as ShardedFarmer::merged_access_frequency.
  double nab = 0.0;
  std::uint64_t na = 0;
  for (std::size_t s = 0; s < channels_.size(); ++s) {
    const PairQueryResult r = decode_pair_result(
        request(s, OpCode::kPairQuery, encode_pair_query(pred, succ)));
    nab += r.edge_weight;
    na += r.graph_access_count;
  }
  return na == 0 ? 0.0 : nab / static_cast<double>(na);
}

MinerStats ClusterMiner::stats() const {
  MinerStats total;
  for (std::size_t s = 0; s < channels_.size(); ++s) {
    const ShardStatsResult r =
        decode_stats_result(request(s, OpCode::kStats, {}));
    total.requests += r.requests;
    total.pairs_evaluated += r.pairs_evaluated;
    total.pairs_accepted += r.pairs_accepted;
    total.pairs_filtered += r.pairs_filtered;
  }
  total.shards = channels_.size();
  // Synchronous from the client's perspective once flush() returned:
  // epoch/pending/cache counters stay at their zero defaults.
  return total;
}

std::size_t ClusterMiner::footprint_bytes() const {
  std::size_t bytes = sizeof(*this);
  for (std::size_t s = 0; s < channels_.size(); ++s)
    bytes += decode_stats_result(request(s, OpCode::kStats, {}))
                 .footprint_bytes;
  return bytes;
}

std::string ClusterMiner::export_shard_model(std::size_t s) const {
  return request(s, OpCode::kExportModel, {});
}

void ClusterMiner::save(const std::string& dir) {
  std::vector<std::string> blobs;
  blobs.reserve(channels_.size());
  std::uint64_t seq = 0;
  for (std::size_t s = 0; s < channels_.size(); ++s) {
    seq += decode_stats_result(request(s, OpCode::kStats, {})).requests;
    blobs.push_back(export_shard_model(s));
  }
  std::filesystem::create_directories(dir);
  persist::write_checkpoint_file(dir + "/CHECKPOINT." + std::to_string(seq),
                                 seq, cfg_,
                                 persist::dictionary_bytes(dict_.get()),
                                 blobs);
}

}  // namespace farmer::net
