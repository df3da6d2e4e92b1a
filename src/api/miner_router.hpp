// Multi-tenant serving: one mining service, many independent workloads.
//
// A peta-scale deployment rarely mines a single stream: one metadata
// cluster serves many tenants (projects, namespaces, customers) whose
// correlation structure must stay isolated — cross-tenant pairs are noise
// at best and an information leak at worst. `MinerRouter` is that serving
// layer: it partitions the FileId space across N child miners, each built
// through the `MinerFactory` with its own backend name and `MinerOptions`
// (tenant 0 on "concurrent", tenant 1 on "sharded", ...), so hot tenants
// get the async pipeline while cold ones stay on the cheap synchronous
// backends — all behind the same `CorrelationMiner` interface.
//
// Routing model:
//   * Ingest routes each record by a pluggable tenant-extraction function
//     over the record's FileId (default: contiguous FileId ranges over the
//     dictionary's file count, falling back to a hash when no dictionary
//     size is known). observe_batch() partitions a batch per tenant
//     preserving order and forwards each sub-batch in one call; a
//     single-tenant router forwards the span untouched (zero-copy), which
//     is what makes its output byte-identical to the direct backend.
//   * Queries are served from the owning child: snapshot(f) /
//     access_count(f) go to tenant_of(f); pairwise queries
//     (correlation_degree, access_frequency, semantic_similarity) go to
//     the first argument's tenant — a cross-tenant pair is answered by the
//     owning tenant, which never mined the foreign file, so the answer is
//     0/empty. That is the isolation contract, not a limitation.
//   * flush() fans out as a barrier: it returns only after every child's
//     flush() returned, so a query issued afterwards sees every record
//     accepted before the call regardless of which tenant it routed to.
//   * stats() merges the children (sums; `epoch` is the max of independent
//     child clocks) and carries each child's full MinerStats in
//     `per_tenant`, in tenant order.
//
// Thread-safety is inherited, not added: the router keeps no mutable state
// after construction (children + a const routing function), so each
// method's guarantee is exactly the weakest child's. With every tenant on
// "concurrent" the router is safe for any producer/reader/flush mix (the
// RouterStress TSan tier pins this); with any synchronous tenant the
// single-threaded interface contract applies.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/correlation_miner.hpp"
#include "api/miner_factory.hpp"
#include "core/config.hpp"

namespace farmer {

/// One tenant's backend choice: a registered factory name plus the child's
/// options. The router passes these verbatim to `make_miner`.
struct RouterTenantSpec {
  std::string backend = "farmer";
  MinerOptions options;
};

/// Parses the per-tenant backend spec string (`FARMER_ROUTER_BACKENDS`):
/// either a single registered name applied to every tenant ("concurrent"),
/// or comma-separated `idx=name` pairs with an optional `*=name` default
/// ("0=concurrent,1=sharded,*=farmer"). Unlisted tenants default to
/// "farmer". Every spec inherits `child_opts`. Throws std::invalid_argument
/// on malformed items, an index >= `tenants`, a duplicate index, or a
/// nested "router". Backend names themselves are validated later by
/// make_miner (unknown names throw there, listing the registry).
[[nodiscard]] std::vector<RouterTenantSpec> parse_router_backends(
    std::string_view spec, std::size_t tenants, const MinerOptions& child_opts);

/// The "router" backend: N factory-built child miners behind one interface.
class MinerRouter final : public CorrelationMiner {
 public:
  /// Maps a file to its owning tenant. Must be pure and thread-safe: it is
  /// called concurrently from every ingest and query path with no
  /// synchronization. Out-of-range results are folded back modulo the
  /// tenant count rather than trusted.
  using TenantFn = std::function<std::uint32_t(FileId)>;

  /// Builds one child per spec through make_miner (so an invalid config or
  /// unknown backend throws std::invalid_argument before any child exists).
  /// An empty `tenant_of` selects the default map: range_tenants over the
  /// dictionary's file count, or hash_tenants when that count is zero.
  MinerRouter(const FarmerConfig& cfg,
              std::shared_ptr<const TraceDictionary> dict,
              std::vector<RouterTenantSpec> tenants, TenantFn tenant_of = {});

  /// Contiguous equal FileId ranges: tenant t owns
  /// [t * file_count / tenant_count, (t+1) * file_count / tenant_count).
  /// Matches the layout of trace::make_multi_tenant_trace when tenants are
  /// equally sized; ids past file_count clamp into the last tenant.
  [[nodiscard]] static TenantFn range_tenants(std::uint32_t tenant_count,
                                              std::uint32_t file_count);
  /// Multiplicative-mix hash of the FileId, modulo the tenant count — the
  /// no-prior-knowledge default when the file population is unknown.
  [[nodiscard]] static TenantFn hash_tenants(std::uint32_t tenant_count);

  // ---- CorrelationMiner ----

  void observe(const TraceRecord& rec) override;
  /// Partitions per tenant preserving order, one observe_batch per
  /// non-empty tenant; single-tenant routers forward the span untouched.
  void observe_batch(std::span<const TraceRecord> records) override;
  /// Barrier fan-out: returns after every child's flush() returned.
  void flush() override;

  /// Owning child's snapshot, forwarded verbatim — lifetime and ownership
  /// follow that child's CorrelatorView contract (borrowed for "farmer"
  /// tenants, owning for "sharded"/"concurrent" tenants).
  [[nodiscard]] CorrelatorView snapshot(FileId f) const override;
  [[nodiscard]] double correlation_degree(FileId a, FileId b) const override;
  [[nodiscard]] double semantic_similarity(FileId a, FileId b) const override;
  [[nodiscard]] std::uint64_t access_count(FileId f) const override;
  [[nodiscard]] double access_frequency(FileId pred,
                                        FileId succ) const override;
  // score_candidates keeps the default loop: access_count(c) routes by the
  // candidate's tenant, the pair queries by src's, so no one child can
  // answer a whole batch.

  /// Merged stats (see the MinerStats field contract): scalar counters are
  /// summed over children, `epoch` is the max child epoch, `shard_epochs`
  /// stays empty, and `per_tenant` carries each child's stats verbatim.
  [[nodiscard]] MinerStats stats() const override;
  [[nodiscard]] std::size_t footprint_bytes() const override;
  [[nodiscard]] const char* name() const noexcept override {
    return "router";
  }

  /// Per-tenant fan-out: child t saves into `dir`/tenant<t>. Every child
  /// must support save() (a "nexus"-like child that does not throws its own
  /// std::logic_error).
  void save(const std::string& dir) override;
  /// Per-tenant fan-out of load() over the same `dir`/tenant<t> layout.
  /// Tenant directories that do not exist recover that child to empty.
  void load(const std::string& dir) override;

  // ---- router introspection ----

  [[nodiscard]] std::size_t tenant_count() const noexcept {
    return children_.size();
  }
  /// The tenant `f` routes to (after the modulo fold).
  [[nodiscard]] std::uint32_t tenant_of(FileId f) const {
    const std::uint32_t t = tenant_of_(f);
    return t < children_.size()
               ? t
               : static_cast<std::uint32_t>(t % children_.size());
  }
  /// Direct read access to one child (tests and stats drill-down).
  [[nodiscard]] const CorrelationMiner& tenant(std::size_t i) const {
    return *children_.at(i);
  }

 private:
  std::vector<std::unique_ptr<CorrelationMiner>> children_;
  TenantFn tenant_of_;
};

}  // namespace farmer
