#include "api/miner_factory.hpp"

#include <functional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/name_table.hpp"
#include "core/concurrent_farmer.hpp"
#include "core/farmer.hpp"
#include "core/sharded_farmer.hpp"
#include "persist/durable_miner.hpp"
#include "persist/persister.hpp"

namespace farmer {

namespace {

// The Nexus baseline as a miner: the paper's p = 0 reduction ("If the
// weight value is 0, FARMER is reduced to Nexus") with no validity
// threshold — successors rank purely by LDA-weighted access frequency.
class NexusMiner final : public Farmer {
 public:
  NexusMiner(FarmerConfig cfg, std::shared_ptr<const TraceDictionary> dict)
      : Farmer(nexus_config(cfg), std::move(dict)) {}

  // Sequence-only: the semantic factor is weighted out, report none.
  [[nodiscard]] double semantic_similarity(FileId, FileId) const override {
    return 0.0;
  }
  // ...in the fused queries too. R needs no fix-up: p = 0 weights sim out.
  void score_candidates(FileId src, std::span<const Correlator> cands,
                        std::span<CandidateScore> out) const override {
    Farmer::score_candidates(src, cands, out);
    for (std::size_t i = 0; i < cands.size(); ++i)
      out[i].semantic_similarity = 0.0;
  }
  [[nodiscard]] const char* name() const noexcept override { return "nexus"; }

 private:
  static FarmerConfig nexus_config(FarmerConfig cfg) {
    cfg.p = 0.0;            // sequence factor only
    cfg.max_strength = 0.0; // Nexus keeps every observed successor
    return cfg;
  }
};

persist::Options persist_options(const MinerOptions& opts) {
  persist::Options p;
  p.dir = opts.persist_dir;
  p.checkpoint_interval_records = opts.checkpoint_interval_records;
  p.wal_group_commit = opts.wal_group_commit;
  return p;
}

using Build = std::unique_ptr<CorrelationMiner> (*)(
    const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
    const MinerOptions& opts);

// Adding a backend means adding a row here. Each must honor the
// CorrelationMiner contracts (correlation_miner.hpp): flush() is a real
// ingest barrier on asynchronous backends, and stats() follows the
// MinerStats field contract.
const NameTable<Build>& backends() {
  static const NameTable<Build> table("backend", {
    // Synchronous backends become durable by decoration: the factory knows
    // the concrete types, so it hands DurableMiner the Farmer shard view
    // the checkpoint serializer needs. Recovery runs inside the decorator's
    // constructor, before the miner is returned.
    {"farmer",
     [](const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
        const MinerOptions& opts) -> std::unique_ptr<CorrelationMiner> {
       auto miner = std::make_unique<Farmer>(cfg, dict);
       if (opts.persist_dir.empty()) return miner;
       std::vector<Farmer*> view{miner.get()};
       return std::make_unique<persist::DurableMiner>(
           std::move(miner), std::move(view), cfg, std::move(dict),
           persist_options(opts));
     }},
    {"sharded",
     [](const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
        const MinerOptions& opts) -> std::unique_ptr<CorrelationMiner> {
       auto miner = std::make_unique<ShardedFarmer>(cfg, dict, opts.shards,
                                                    opts.apply_threads);
       if (opts.persist_dir.empty()) return miner;
       std::vector<Farmer*> view;
       view.reserve(miner->shard_count());
       for (std::size_t s = 0; s < miner->shard_count(); ++s)
         view.push_back(&miner->shard_mut(s));
       // Checkpoint cuts serialize the shards on the existing apply lanes.
       persist::ShardRunner lanes =
           [sharded = miner.get()](
               const std::function<void(std::size_t)>& body) {
             sharded->run_per_shard(body);
           };
       return std::make_unique<persist::DurableMiner>(
           std::move(miner), std::move(view), cfg, std::move(dict),
           persist_options(opts), std::move(lanes));
     }},
    {"nexus",
     [](const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
        const MinerOptions& opts) -> std::unique_ptr<CorrelationMiner> {
       auto miner = std::make_unique<NexusMiner>(cfg, dict);
       if (opts.persist_dir.empty()) return miner;
       std::vector<Farmer*> view{miner.get()};
       return std::make_unique<persist::DurableMiner>(
           std::move(miner), std::move(view), cfg, std::move(dict),
           persist_options(opts));
     }},
    {"concurrent",
     [](const FarmerConfig& cfg, std::shared_ptr<const TraceDictionary> dict,
        const MinerOptions& opts) -> std::unique_ptr<CorrelationMiner> {
       // max_pending == 0 means "backend default"; the constructor resolves
       // it so direct and factory construction cannot diverge. Durability
       // is embedded, not decorated: the WAL hooks must live on the drain
       // thread and the checkpoints off the published COW snapshots (see
       // ConcurrentFarmer).
       std::unique_ptr<persist::Persister> persister;
       if (!opts.persist_dir.empty())
         persister =
             std::make_unique<persist::Persister>(persist_options(opts));
       return std::make_unique<ConcurrentFarmer>(
           cfg, std::move(dict), opts.shards, opts.ingest_threads,
           opts.max_pending, std::move(persister), opts.apply_threads);
     }},
  });
  return table;
}

}  // namespace

std::vector<std::string> registered_miners() { return backends().names(); }

std::unique_ptr<CorrelationMiner> make_miner(
    std::string_view name, const FarmerConfig& cfg,
    std::shared_ptr<const TraceDictionary> dict, const MinerOptions& opts) {
  const std::string errors = cfg.validate();
  if (!errors.empty())
    throw std::invalid_argument("make_miner: invalid FarmerConfig: " +
                                errors);
  return backends().at(name)(cfg, std::move(dict), opts);
}

}  // namespace farmer
