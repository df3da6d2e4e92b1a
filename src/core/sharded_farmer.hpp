// Sharded concurrent mining.
//
// A peta-scale deployment runs many metadata servers, each mining the
// request streams of the clients it serves. `ShardedFarmer` models that:
// requests are partitioned by process id (stream affinity) across S
// independent Farmer shards that can ingest in parallel without sharing
// mutable state (Core Guidelines CP.3: minimize sharing). Queries merge the
// per-shard Correlator Lists by degree.
//
// Sharding by process also removes cross-process interleaving noise from
// each shard's window — the same effect the paper attributes to semantic
// filtering — so shard results are a strict-quality variant, not an
// approximation; the equivalence test pins down the exact relationship.
//
// The cross-shard merge rules live in the static `merged_*` helpers, which
// operate on any span of Farmer shards — this class's live shards or the
// immutable shard snapshots the concurrent backend publishes RCU-style
// (export_shard_snapshot). Every consumer of shard state runs the same
// arithmetic in the same order, which is what makes "concurrent after
// flush() is byte-identical to sharded" a structural property instead of a
// test-enforced coincidence.
#pragma once

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "api/correlation_miner.hpp"
#include "core/farmer.hpp"

namespace farmer {

class WorkerPool;

class ShardedFarmer final : public CorrelationMiner {
 public:
  /// `apply_threads` sizes the persistent worker pool behind
  /// observe_batch(): 0 = auto (hardware parallelism), 1 = serial apply, and
  /// anything higher caps at the shard count (a shard slice is the unit of
  /// parallelism). The pool only exists when the resolved count and the
  /// shard count both exceed one.
  ShardedFarmer(FarmerConfig cfg, std::shared_ptr<const TraceDictionary> dict,
                std::size_t shards, std::size_t apply_threads = 0);
  ~ShardedFarmer() override;

  /// Routes one request to its shard (serial ingest path).
  void observe(const TraceRecord& rec) override;

  /// Ingests a batch: the span is partitioned into contiguous per-shard
  /// slices preserving each stream's order, then the slices are applied
  /// concurrently on the worker pool (serially without one). Shards share
  /// no mutable state and per-shard record order is exactly the serial
  /// routing order, so the result is byte-identical to per-record observe()
  /// at every apply-thread count.
  void observe_batch(std::span<const TraceRecord> records) override;

  /// Apply threads the batch path actually uses (1 = serial).
  [[nodiscard]] std::size_t apply_thread_count() const noexcept;

  /// Runs body(s) for every shard index on the apply lanes (serially
  /// without a pool) and returns once all finished — the durable
  /// decorator serializes shards at a checkpoint cut this way. Same
  /// threading rule as observe_batch: call from the ingest thread, never
  /// concurrently with it; `body` must not throw.
  void run_per_shard(const std::function<void(std::size_t)>& body);

  /// Merged Correlator List across shards, sorted by degree, deduplicated
  /// (highest degree wins), capped at the configured capacity.
  [[nodiscard]] std::vector<Correlator> correlators(FileId f) const;

  /// Owning snapshot: the merge materializes a fresh list, so the view is
  /// immutable by construction.
  [[nodiscard]] CorrelatorView snapshot(FileId f) const override {
    return CorrelatorView(correlators(f));
  }

  /// Strongest per-shard evaluation — consistent with the merge rule
  /// (the strongest shard wins a duplicated pair).
  [[nodiscard]] double correlation_degree(FileId a, FileId b) const override;
  [[nodiscard]] double semantic_similarity(FileId a, FileId b) const override;

  /// Global N_f: accesses of `f` summed over shards.
  [[nodiscard]] std::uint64_t access_count(FileId f) const override;
  /// Global F(pred, succ) = sum_s N_AB,s / sum_s N_A,s.
  [[nodiscard]] double access_frequency(FileId pred,
                                        FileId succ) const override;

  /// Fused reference queries: one visit per shard (merged_score_candidates).
  void score_candidates(FileId src, std::span<const Correlator> cands,
                        std::span<CandidateScore> out) const override {
    merged_score_candidates(shards_, src, cands, out);
  }

  [[nodiscard]] MinerStats stats() const override;
  [[nodiscard]] const char* name() const noexcept override {
    return "sharded";
  }

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] const Farmer& shard(std::size_t i) const {
    return *shards_.at(i);
  }
  /// Mutable shard access — the recovery path (src/persist) deserializes
  /// checkpoint blobs straight into the shards; nothing else should mutate
  /// a shard from outside.
  [[nodiscard]] Farmer& shard_mut(std::size_t i) { return *shards_.at(i); }

  /// Checkpoints every shard into directory `dir`.
  void save(const std::string& dir) override;
  /// Restores from `dir`; shard count must match the checkpoint's. Only
  /// valid before any ingest; throws std::logic_error otherwise.
  void load(const std::string& dir) override;
  [[nodiscard]] std::size_t footprint_bytes() const noexcept override;

  /// Shard a record routes to (mix64 of the process id). Exposed so the
  /// concurrent backend can tell which shards an apply round will touch and
  /// republish only those snapshots.
  [[nodiscard]] std::size_t shard_of(const TraceRecord& rec) const noexcept;

  /// Immutable copy-on-write snapshot of shard `i` for RCU publication:
  /// every const query on the returned Farmer answers exactly as the live
  /// shard would have at export time, and nothing can mutate it afterwards
  /// (it is frozen behind the const). The export structurally shares every
  /// per-file block with the live shard — O(pages) pointer copies — and the
  /// live shard clones exactly the blocks later ingest touches, so publish
  /// cost is proportional to the dirty set, not the shard size. Non-const
  /// because it advances the live shard's COW generation.
  [[nodiscard]] std::shared_ptr<const Farmer> export_shard_snapshot(
      std::size_t i) {
    return std::make_shared<const Farmer>(CowShare{}, *shards_.at(i));
  }

  /// Per-store COW accounting of shard `i` (see Farmer::cow_accounting).
  [[nodiscard]] std::array<CowStoreAccounting, 2> shard_cow_accounting(
      std::size_t i) const {
    return shards_.at(i)->cow_accounting();
  }
  /// Cumulative COW block clones across every shard.
  [[nodiscard]] std::uint64_t cow_clones() const noexcept {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s->cow_clones();
    return total;
  }

  // Cross-shard merge rules over any shard set — templated on the range so
  // the live shards (vector<unique_ptr<Farmer>>) and the concurrent
  // backend's published snapshots (vector<shared_ptr<const Farmer>>) both
  // query without materializing a pointer array per call (the query paths
  // are allocation-free apart from the returned list). `*element` must
  // dereference to `const Farmer&`.

  /// Merged Correlator List: concatenate per-shard lists in shard order
  /// into a buffer sized up front, sort by descending degree (file id
  /// breaks ties), deduplicate keeping the strongest shard's entry, cap at
  /// `capacity`. The deduplication runs in place (the kept prefix never
  /// overtakes the read position), so the merge allocates nothing beyond
  /// `merged`.
  template <typename ShardRange>
  [[nodiscard]] static std::vector<Correlator> merged_correlators(
      const ShardRange& shards, FileId f, std::size_t capacity) {
    std::size_t total = 0;
    for (const auto& shard : shards) total += shard->correlator_list(f).size();
    std::vector<Correlator> merged;
    merged.reserve(total);
    for (const auto& shard : shards) {
      const auto& list = shard->correlator_list(f);
      merged.insert(merged.end(), list.begin(), list.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const Correlator& a, const Correlator& b) {
                if (a.degree != b.degree) return a.degree > b.degree;
                return a.file < b.file;
              });
    // Deduplicate successors: the strongest shard wins.
    std::size_t kept = 0;
    for (std::size_t i = 0; i < merged.size(); ++i) {
      const Correlator c = merged[i];
      const bool seen = std::any_of(
          merged.begin(), merged.begin() + static_cast<std::ptrdiff_t>(kept),
          [&](const Correlator& o) { return o.file == c.file; });
      if (!seen) merged[kept++] = c;
      if (kept >= capacity) break;
    }
    merged.resize(kept);
    return merged;
  }

  /// Strongest per-shard R(a, b) — consistent with the merge rule.
  template <typename ShardRange>
  [[nodiscard]] static double merged_correlation_degree(
      const ShardRange& shards, FileId a, FileId b) {
    double best = 0.0;
    for (const auto& shard : shards)
      best = std::max(best, shard->correlation_degree(a, b));
    return best;
  }

  template <typename ShardRange>
  [[nodiscard]] static double merged_semantic_similarity(
      const ShardRange& shards, FileId a, FileId b) {
    double best = 0.0;
    for (const auto& shard : shards)
      best = std::max(best, shard->semantic_similarity(a, b));
    return best;
  }

  /// Global N_f: accesses summed over shards.
  template <typename ShardRange>
  [[nodiscard]] static std::uint64_t merged_access_count(
      const ShardRange& shards, FileId f) {
    std::uint64_t total = 0;
    for (const auto& shard : shards) total += shard->access_count(f);
    return total;
  }

  /// Global F(pred, succ) = sum_s N_AB,s / sum_s N_A,s.
  template <typename ShardRange>
  [[nodiscard]] static double merged_access_frequency(
      const ShardRange& shards, FileId pred, FileId succ) {
    double nab = 0.0;
    std::uint64_t na = 0;
    for (const auto& shard : shards) {
      nab += shard->graph().edge_weight(pred, succ);
      na += shard->graph().access_count(pred);
    }
    return na == 0 ? 0.0 : nab / static_cast<double>(na);
  }

  /// Fused FPA reference queries over a shard set: every shard is visited
  /// once (Farmer::accumulate_scores) and the results fold in shard order
  /// with the rules above — sums for N_c and for sum N_ab / sum N_a, max for
  /// sim and for the per-shard R — so out[i] is bit-identical to calling
  /// the four merged_* queries for cands[i].
  template <typename ShardRange>
  static void merged_score_candidates(const ShardRange& shards, FileId src,
                                      std::span<const Correlator> cands,
                                      std::span<CandidateScore> out) {
    const std::span<CandidateScore> scores = out.first(cands.size());
    std::fill(scores.begin(), scores.end(), CandidateScore{});
    std::uint64_t n_src = 0;
    for (const auto& shard : shards)
      n_src += shard->accumulate_scores(src, cands, scores);
    Farmer::finalize_scores(scores, n_src);
  }

  /// Sums the four mining counters over shards; shards/epoch/pending are
  /// left at their zero defaults for the caller to fill in.
  template <typename ShardRange>
  [[nodiscard]] static MinerStats merged_stats(const ShardRange& shards) {
    MinerStats total;
    for (const auto& shard : shards) {
      const MinerStats s = shard->stats();
      total.requests += s.requests;
      total.pairs_evaluated += s.pairs_evaluated;
      total.pairs_accepted += s.pairs_accepted;
      total.pairs_filtered += s.pairs_filtered;
    }
    return total;
  }

 private:
  FarmerConfig cfg_;
  std::vector<std::unique_ptr<Farmer>> shards_;
  /// Persistent apply workers (null = serial apply). Out-of-line dtor keeps
  /// WorkerPool an incomplete type here.
  std::unique_ptr<WorkerPool> pool_;
  /// Reusable per-shard slice buffers for observe_batch — capacity survives
  /// across batches so steady-state partitioning allocates nothing.
  std::vector<std::vector<TraceRecord>> slices_;
  /// Batch-apply counters surfaced through stats() (MinerStats contract:
  /// apply_batches / apply_parallel_records).
  std::uint64_t apply_batches_ = 0;
  std::uint64_t apply_parallel_records_ = 0;
};

}  // namespace farmer
