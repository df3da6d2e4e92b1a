// Tests for replacement policies and the prefetch-aware metadata cache.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cache/metadata_cache.hpp"
#include "cache/replacement.hpp"
#include "common/rng.hpp"

namespace farmer {
namespace {

// ------------------------------------------------------ policy-specific --

TEST(Lru, EvictsLeastRecentlyUsed) {
  MetadataCache c(2, CachePolicy::kLRU);
  c.insert_demand(FileId(1));
  c.insert_demand(FileId(2));
  (void)c.access(FileId(1));  // 1 becomes MRU
  c.insert_demand(FileId(3)); // evicts 2
  EXPECT_TRUE(c.contains(FileId(1)));
  EXPECT_FALSE(c.contains(FileId(2)));
  EXPECT_TRUE(c.contains(FileId(3)));
}

TEST(Lfu, EvictsLeastFrequentlyUsed) {
  MetadataCache c(2, CachePolicy::kLFU);
  c.insert_demand(FileId(1));
  c.insert_demand(FileId(2));
  (void)c.access(FileId(1));
  (void)c.access(FileId(1));
  (void)c.access(FileId(2));
  c.insert_demand(FileId(3));  // evicts 2 (freq 2 < freq 3)
  EXPECT_TRUE(c.contains(FileId(1)));
  EXPECT_FALSE(c.contains(FileId(2)));
}

TEST(Clock, GivesSecondChance) {
  MetadataCache c(2, CachePolicy::kCLOCK);
  c.insert_demand(FileId(1));
  c.insert_demand(FileId(2));
  (void)c.access(FileId(1));
  (void)c.access(FileId(2));
  // Both referenced; insertion sweeps, clears bits, evicts the first
  // unreferenced frame — deterministic full rotation.
  c.insert_demand(FileId(3));
  EXPECT_EQ(c.size(), 2u);
  EXPECT_TRUE(c.contains(FileId(3)));
}

TEST(Arc, AdaptsToGhostHits) {
  // Fill, evict, re-insert: the ghost hit must not crash and the entry
  // returns as resident.
  MetadataCache c(2, CachePolicy::kARC);
  c.insert_demand(FileId(1));
  c.insert_demand(FileId(2));
  c.insert_demand(FileId(3));  // evicts something into a ghost list
  const bool one_resident = c.contains(FileId(1));
  c.insert_demand(one_resident ? FileId(2) : FileId(1));  // ghost hit path
  EXPECT_LE(c.size(), 2u);
}

TEST(PolicyFactory, MakesAllPolicies) {
  for (auto p : {CachePolicy::kLRU, CachePolicy::kLFU, CachePolicy::kCLOCK,
                 CachePolicy::kARC}) {
    const auto policy = make_policy(p);
    ASSERT_NE(policy, nullptr);
    EXPECT_STREQ(policy->name(), cache_policy_name(p));
  }
}

// -------------------------------------------- parameterized policy suite --

class PolicySuite : public ::testing::TestWithParam<CachePolicy> {};

TEST_P(PolicySuite, CapacityNeverExceeded) {
  MetadataCache c(8, GetParam());
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const FileId f(static_cast<std::uint32_t>(rng.next_below(64)));
    if (!c.access(f)) {
      if (rng.next_bool(0.5))
        c.insert_demand(f);
      else
        c.insert_prefetch(f);
    }
    ASSERT_LE(c.size(), 8u);
  }
}

TEST_P(PolicySuite, HitAfterInsert) {
  MetadataCache c(4, GetParam());
  c.insert_demand(FileId(7));
  EXPECT_TRUE(c.access(FileId(7)));
}

TEST_P(PolicySuite, MissOnEmpty) {
  MetadataCache c(4, GetParam());
  EXPECT_FALSE(c.access(FileId(1)));
}

TEST_P(PolicySuite, EraseRemoves) {
  MetadataCache c(4, GetParam());
  c.insert_demand(FileId(1));
  c.erase(FileId(1));
  EXPECT_FALSE(c.contains(FileId(1)));
  EXPECT_EQ(c.size(), 0u);
}

TEST_P(PolicySuite, WorkingSetSmallerThanCapacityAlwaysHitsEventually) {
  MetadataCache c(8, GetParam());
  // Working set of 4 distinct files cycled: after the first pass, every
  // access must hit for every sane policy.
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint32_t f = 0; f < 4; ++f) {
      if (!c.access(FileId(f))) c.insert_demand(FileId(f));
    }
  }
  EXPECT_EQ(c.stats().demand.denominator(), 12u);
  EXPECT_GE(c.stats().demand.numerator(), 8u);
}

TEST_P(PolicySuite, DuplicateInsertIsNoop) {
  MetadataCache c(4, GetParam());
  c.insert_demand(FileId(1));
  c.insert_demand(FileId(1));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_FALSE(c.insert_prefetch(FileId(1)));
  EXPECT_EQ(c.stats().prefetch_inserted, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicySuite,
                         ::testing::Values(CachePolicy::kLRU,
                                           CachePolicy::kLFU,
                                           CachePolicy::kCLOCK,
                                           CachePolicy::kARC),
                         [](const auto& info) {
                           return cache_policy_name(info.param);
                         });

// ------------------------------------------------------- MetadataCache ---

TEST(MetadataCache, DemandHitMissAccounting) {
  MetadataCache c(4, CachePolicy::kLRU);
  EXPECT_FALSE(c.access(FileId(1)));
  c.insert_demand(FileId(1));
  EXPECT_TRUE(c.access(FileId(1)));
  EXPECT_EQ(c.stats().demand.denominator(), 2u);
  EXPECT_EQ(c.stats().demand.numerator(), 1u);
  EXPECT_DOUBLE_EQ(c.stats().hit_ratio(), 0.5);
}

TEST(MetadataCache, PrefetchAccuracyCountsFirstUse) {
  MetadataCache c(4, CachePolicy::kLRU);
  c.insert_prefetch(FileId(1));
  c.insert_prefetch(FileId(2));
  (void)c.access(FileId(1));  // used
  (void)c.access(FileId(1));  // second hit doesn't double count
  EXPECT_EQ(c.stats().prefetch_inserted, 2u);
  EXPECT_EQ(c.stats().prefetch_used, 1u);
  EXPECT_DOUBLE_EQ(c.stats().prefetch_accuracy(), 0.5);
}

TEST(MetadataCache, PollutionCountsEvictedUnused) {
  MetadataCache c(2, CachePolicy::kLRU);
  c.insert_prefetch(FileId(1));
  c.insert_prefetch(FileId(2));
  c.insert_demand(FileId(3));  // evicts 1 (unused prefetch)
  c.insert_demand(FileId(4));  // evicts 2 (unused prefetch)
  EXPECT_EQ(c.stats().prefetch_evicted_unused, 2u);
  EXPECT_DOUBLE_EQ(c.stats().pollution_ratio(), 1.0);
}

TEST(MetadataCache, UsedPrefetchNotCountedAsPollution) {
  MetadataCache c(2, CachePolicy::kLRU);
  c.insert_prefetch(FileId(1));
  (void)c.access(FileId(1));
  c.insert_demand(FileId(2));
  c.insert_demand(FileId(3));  // evicts the used prefetch
  EXPECT_EQ(c.stats().prefetch_evicted_unused, 0u);
}

TEST(MetadataCache, ResetStatsKeepsResidency) {
  MetadataCache c(4, CachePolicy::kLRU);
  c.insert_demand(FileId(1));
  (void)c.access(FileId(1));
  c.reset_stats();
  EXPECT_EQ(c.stats().demand.denominator(), 0u);
  EXPECT_TRUE(c.contains(FileId(1)));
}

TEST(MetadataCache, CapacityOneWorks) {
  MetadataCache c(1, CachePolicy::kLRU);
  c.insert_demand(FileId(1));
  c.insert_demand(FileId(2));
  EXPECT_EQ(c.size(), 1u);
  EXPECT_TRUE(c.contains(FileId(2)));
}

TEST(MetadataCache, ZeroCapacityClampedToOne) {
  MetadataCache c(0, CachePolicy::kLRU);
  c.insert_demand(FileId(1));
  EXPECT_EQ(c.capacity(), 1u);
  EXPECT_EQ(c.size(), 1u);
}

TEST(MetadataCache, EvictionCounterAdvances) {
  MetadataCache c(2, CachePolicy::kLRU);
  for (std::uint32_t i = 0; i < 10; ++i) c.insert_demand(FileId(i));
  EXPECT_EQ(c.stats().evictions, 8u);
}

// LRU stress against a reference model.
TEST(Lru, MatchesReferenceModelUnderRandomOps) {
  MetadataCache c(16, CachePolicy::kLRU);
  std::vector<FileId> ref;  // front = LRU, back = MRU
  Rng rng(77);
  auto ref_touch = [&](FileId f) {
    for (std::size_t i = 0; i < ref.size(); ++i)
      if (ref[i] == f) {
        ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
    ref.push_back(f);
  };
  for (int op = 0; op < 5000; ++op) {
    const FileId f(static_cast<std::uint32_t>(rng.next_below(64)));
    const bool hit = c.access(f);
    const bool ref_hit =
        std::find(ref.begin(), ref.end(), f) != ref.end();
    ASSERT_EQ(hit, ref_hit) << "op " << op;
    if (hit) {
      ref_touch(f);
    } else {
      if (ref.size() >= 16) ref.erase(ref.begin());
      ref.push_back(f);
      c.insert_demand(f);
    }
    ASSERT_EQ(c.size(), ref.size());
  }
}

}  // namespace
}  // namespace farmer
