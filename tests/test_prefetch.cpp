// Tests for the predictor implementations and the replay engine.
#include <gtest/gtest.h>

#include "api/miner_factory.hpp"
#include "prefetch/fpa.hpp"
#include "prefetch/nexus.hpp"
#include "prefetch/probability_graph.hpp"
#include "prefetch/replay.hpp"
#include "prefetch/sd_graph.hpp"
#include "prefetch/successor.hpp"
#include "test_helpers.hpp"
#include "trace/generator.hpp"

namespace farmer {
namespace {

using testing::MicroTrace;

PredictionList predict(Predictor& p, const TraceRecord& rec,
                       std::size_t limit = 8) {
  PredictionList out;
  p.predict(rec, limit, out);
  return out;
}

// -------------------------------------------------------- LastSuccessor --

TEST(LastSuccessor, PredictsMostRecentFollower) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b"), c = mt.file("c");
  LastSuccessorPredictor p;
  p.observe(mt.access(a));
  p.observe(mt.access(b));
  p.observe(mt.access(a));
  p.observe(mt.access(c));  // successor of a is now c
  const auto& rec = mt.access(a);
  p.observe(rec);
  const auto out = predict(p, rec);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], c);
}

TEST(LastSuccessor, NoPredictionForUnseenFile) {
  MicroTrace mt;
  const FileId a = mt.file("a");
  LastSuccessorPredictor p;
  const auto& rec = mt.access(a);
  p.observe(rec);
  EXPECT_TRUE(predict(p, rec).empty());
}

TEST(FirstSuccessor, NeverOverwrites) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b"), c = mt.file("c");
  FirstSuccessorPredictor p;
  p.observe(mt.access(a));
  p.observe(mt.access(b));  // first successor of a = b, forever
  p.observe(mt.access(a));
  p.observe(mt.access(c));
  const auto& rec = mt.access(a);
  p.observe(rec);
  const auto out = predict(p, rec);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], b);
}

TEST(RecentPopularity, RequiresJOutOfK) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b"), c = mt.file("c"),
               d = mt.file("d");
  RecentPopularityPredictor p({/*k=*/4, /*j=*/2});
  // successors of a: b, c, d -> none reaches multiplicity 2.
  p.observe(mt.access(a));
  p.observe(mt.access(b));
  p.observe(mt.access(a));
  p.observe(mt.access(c));
  p.observe(mt.access(a));
  p.observe(mt.access(d));
  const auto& r1 = mt.access(a);
  p.observe(r1);
  EXPECT_TRUE(predict(p, r1).empty());
  // One more b: history (c, d, b, b)? -> b has multiplicity 2.
  p.observe(mt.access(b));
  const auto& r2 = mt.access(a);
  p.observe(r2);
  const auto out = predict(p, r2);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], b);
}

// ----------------------------------------------------------- PBS / PULS --

TEST(Pbs, SeparatesProgramContexts) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b"), c = mt.file("c");
  ContextualLastSuccessorPredictor p(
      ContextualLastSuccessorPredictor::Mode::kProgram);
  // Program gcc: a -> b.  Program vim: a -> c. Interleaved they would
  // corrupt plain LS; PBS keeps them separate.
  p.observe(mt.access(a, "u0", "p1", "h0", "gcc"));
  p.observe(mt.access(a, "u1", "p2", "h0", "vim"));
  p.observe(mt.access(b, "u0", "p1", "h0", "gcc"));
  p.observe(mt.access(c, "u1", "p2", "h0", "vim"));

  const auto& rg = mt.access(a, "u0", "p3", "h0", "gcc");
  p.observe(rg);
  auto out = predict(p, rg);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], b);

  const auto& rv = mt.access(a, "u1", "p4", "h0", "vim");
  p.observe(rv);
  out = predict(p, rv);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], c);
}

TEST(Puls, SeparatesUserWithinProgram) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b"), c = mt.file("c");
  ContextualLastSuccessorPredictor p(
      ContextualLastSuccessorPredictor::Mode::kProgramUser);
  // Same program, two users with different habits.
  p.observe(mt.access(a, "alice", "p1", "h0", "gcc"));
  p.observe(mt.access(b, "alice", "p1", "h0", "gcc"));
  p.observe(mt.access(a, "bob", "p2", "h0", "gcc"));
  p.observe(mt.access(c, "bob", "p2", "h0", "gcc"));

  const auto& ra = mt.access(a, "alice", "p3", "h0", "gcc");
  p.observe(ra);
  auto out = predict(p, ra);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], b);
}

TEST(Pbs, NamesDependOnMode) {
  ContextualLastSuccessorPredictor pbs(
      ContextualLastSuccessorPredictor::Mode::kProgram);
  ContextualLastSuccessorPredictor puls(
      ContextualLastSuccessorPredictor::Mode::kProgramUser);
  EXPECT_STREQ(pbs.name(), "PBS");
  EXPECT_STREQ(puls.name(), "PULS");
}

// ---------------------------------------------------------------- Nexus --

TEST(Nexus, RanksByAccumulatedWeight) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b"), c = mt.file("c");
  NexusPredictor p;
  // a -> b three times, a -> c twice; both exceed the pruning floor.
  for (int i = 0; i < 3; ++i) {
    p.observe(mt.access(a));
    p.observe(mt.access(b));
  }
  for (int i = 0; i < 2; ++i) {
    p.observe(mt.access(a));
    p.observe(mt.access(c));
  }
  const auto& rec = mt.access(a);
  p.observe(rec);
  const auto out = predict(p, rec);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0], b);
  EXPECT_EQ(out[1], c);
}

TEST(Nexus, PrunesSingleObservationEdges) {
  MicroTrace mt;
  const FileId a = mt.file("a"), z = mt.file("z");
  NexusPredictor p;
  // One observation accumulates at most 1.0 < min_weight (1.5): no
  // prefetch from a single co-occurrence.
  p.observe(mt.access(a));
  p.observe(mt.access(z));
  const auto& rec = mt.access(a);
  p.observe(rec);
  EXPECT_TRUE(predict(p, rec).empty());
}

TEST(Nexus, NoSemanticFilterPrefetchesCrossContext) {
  // The defining weakness: an interleaved foreign file still gets
  // prefetched because only sequence counts matter.
  MicroTrace mt;
  const FileId a = mt.file("a"), x = mt.file("x");
  NexusPredictor p;
  for (int i = 0; i < 5; ++i) {
    p.observe(mt.access(a, "u0", "pid0"));
    p.observe(mt.access(x, "u9", "pid9"));
  }
  const auto& rec = mt.access(a, "u0", "pid0");
  p.observe(rec);
  const auto out = predict(p, rec);
  ASSERT_FALSE(out.empty());
  EXPECT_EQ(out[0], x);
}

TEST(Nexus, GroupSizeCapsPredictions) {
  MicroTrace mt;
  const FileId a = mt.file("a");
  NexusPredictor::Config cfg;
  cfg.prefetch_group = 2;
  NexusPredictor p(cfg);
  for (int i = 0; i < 6; ++i) {
    p.observe(mt.access(a));
    p.observe(mt.access(mt.file("s" + std::to_string(i))));
  }
  const auto& rec = mt.access(a);
  p.observe(rec);
  EXPECT_LE(predict(p, rec).size(), 2u);
}

// ------------------------------------------------------ ProbabilityGraph --

TEST(ProbabilityGraph, ThresholdSuppressesRareSuccessors) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b"), z = mt.file("z");
  ProbabilityGraphPredictor p({/*window=*/1, /*min_chance=*/0.5, 16});
  // b follows a 9 times, z once: P(b|a) = .9, P(z|a) = .1.
  for (int i = 0; i < 9; ++i) {
    p.observe(mt.access(a));
    p.observe(mt.access(b));
  }
  p.observe(mt.access(a));
  p.observe(mt.access(z));
  const auto& rec = mt.access(a);
  p.observe(rec);
  const auto out = predict(p, rec);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], b);
}

// --------------------------------------------------------------- SDGraph --

TEST(SdGraph, HarmonicDecayFavoursCloseSuccessors) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b"), c = mt.file("c");
  SdGraphPredictor p;
  // Sequence a,b,c repeatedly: b at distance 1 (w=1), c at distance 2
  // (w=0.5) from a.
  for (int i = 0; i < 4; ++i) {
    p.observe(mt.access(a));
    p.observe(mt.access(b));
    p.observe(mt.access(c));
  }
  const auto& rec = mt.access(a);
  p.observe(rec);
  const auto out = predict(p, rec);
  ASSERT_GE(out.size(), 2u);
  EXPECT_EQ(out[0], b);
  EXPECT_EQ(out[1], c);
}

// ------------------------------------------------------------------ FPA --

TEST(Fpa, PredictsOnlyValidCorrelators) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/home/u0/p/a");
  const FileId b = mt.file("b", "/home/u0/p/b");
  const FileId x = mt.file("x", "/var/q/x");
  // Strong intra-context pair a->b; interleaved foreign x from a different
  // user, process, and host.
  for (int i = 0; i < 5; ++i) {
    mt.access(a, "u0", "pid0", "h0");
    mt.access(x, "u9", "pid9", "h9");
    mt.access(b, "u0", "pid0", "h0");
  }
  FarmerConfig cfg;
  FpaPredictor p(cfg, mt.dict());
  for (const auto& r : mt.records()) p.observe(r);
  const auto& rec = mt.records().back();
  // Predict successors of the last accessed 'b'... use an 'a' record:
  const auto& a_rec = mt.records()[mt.records().size() - 3];
  ASSERT_EQ(a_rec.file, a);
  PredictionList out;
  p.predict(a_rec, 8, out);
  // x must not be predicted (filtered); b should be.
  bool has_b = false;
  for (FileId f : out) {
    EXPECT_NE(f, x);
    has_b |= (f == b);
  }
  EXPECT_TRUE(has_b);
  (void)rec;
}

TEST(Fpa, RespectsLimit) {
  MicroTrace mt;
  const FileId a = mt.file("a", "/h/u/g/a");
  std::vector<FileId> members;
  for (int i = 0; i < 6; ++i)
    members.push_back(mt.file("m" + std::to_string(i),
                              "/h/u/g/m" + std::to_string(i)));
  for (int rep = 0; rep < 4; ++rep) {
    mt.access(a);
    for (const FileId m : members) mt.access(m);
  }
  FpaPredictor p(FarmerConfig{}, mt.dict());
  for (const auto& r : mt.records()) p.observe(r);
  const auto& a_rec = mt.records()[mt.records().size() - 7];
  ASSERT_EQ(a_rec.file, a);
  PredictionList out;
  p.predict(a_rec, 2, out);
  EXPECT_LE(out.size(), 2u);
}

/// Forwards every query to a wrapped miner but keeps the default
/// score_candidates, so FPA over it re-checks candidates through the four
/// single queries — the reference the fused overrides must reproduce.
class SingleQueryMiner final : public CorrelationMiner {
 public:
  explicit SingleQueryMiner(std::unique_ptr<CorrelationMiner> inner)
      : inner_(std::move(inner)) {}
  void observe(const TraceRecord& rec) override { inner_->observe(rec); }
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
  [[nodiscard]] double access_frequency(FileId a, FileId b) const override {
    return inner_->access_frequency(a, b);
  }
  [[nodiscard]] MinerStats stats() const override { return inner_->stats(); }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  [[nodiscard]] const char* name() const noexcept override {
    return "single-query";
  }

 private:
  std::unique_ptr<CorrelationMiner> inner_;
};

// FPA's output may not depend on whether the backend fuses the reference
// queries: over an HP replay, FPA on "sharded" (fused override) and FPA on
// the same backend behind a decorator that only forwards the single queries
// predict exactly the same files in the same order for every record.
TEST(Fpa, FusedScoringPredictsLikeSingleQueries) {
  const Trace t = make_paper_trace(TraceKind::kHP, 41, 0.03);
  const FarmerConfig cfg;
  MinerOptions opts;
  opts.shards = 4;
  FpaPredictor fused(make_miner("sharded", cfg, t.dict, opts));
  FpaPredictor single(std::make_unique<SingleQueryMiner>(
      make_miner("sharded", cfg, t.dict, opts)));
  std::size_t predicted = 0;
  for (std::size_t i = 0; i < t.records.size(); ++i) {
    const TraceRecord& r = t.records[i];
    fused.observe(r);
    single.observe(r);
    const PredictionList a = predict(fused, r, 4);
    const PredictionList b = predict(single, r, 4);
    ASSERT_EQ(a.size(), b.size()) << "record " << i;
    for (std::size_t k = 0; k < a.size(); ++k)
      ASSERT_EQ(a[k], b[k]) << "record " << i << " slot " << k;
    predicted += a.size();
  }
  EXPECT_GT(predicted, 0u);
}

TEST(Noop, NeverPredicts) {
  MicroTrace mt;
  NoopPredictor p;
  const auto& rec = mt.access(mt.file("a"));
  p.observe(rec);
  EXPECT_TRUE(predict(p, rec).empty());
}

// ---------------------------------------------------------------- Replay --

TEST(Replay, PerfectlyPredictablePatternGetsHighHitRatio) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b");
  for (int i = 0; i < 100; ++i) {
    mt.access(a);
    mt.access(b);
  }
  const Trace t = mt.build();
  LastSuccessorPredictor p;
  ReplayConfig cfg;
  cfg.cache_capacity = 1;  // only prefetching can save the day
  const auto result = replay_trace(t, p, cfg);
  // With capacity 1 and alternating accesses, every demand access misses
  // under pure LRU; LS prefetching turns most of them into hits.
  EXPECT_GT(result.hit_ratio(), 0.8);
  EXPECT_GT(result.prefetch_accuracy(), 0.8);
}

TEST(Replay, NoopPredictorEqualsPlainCache) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b");
  for (int i = 0; i < 10; ++i) {
    mt.access(a);
    mt.access(b);
  }
  const Trace t = mt.build();
  NoopPredictor p;
  ReplayConfig cfg;
  cfg.cache_capacity = 4;
  const auto result = replay_trace(t, p, cfg);
  // Two compulsory misses, everything else hits; zero prefetches.
  EXPECT_EQ(result.cache.prefetch_inserted, 0u);
  EXPECT_EQ(result.cache.demand.denominator(), 20u);
  EXPECT_EQ(result.cache.demand.numerator(), 18u);
}

TEST(Replay, WarmupDiscardsColdCounters) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b");
  for (int i = 0; i < 50; ++i) {
    mt.access(a);
    mt.access(b);
  }
  const Trace t = mt.build();
  NoopPredictor p1, p2;
  ReplayConfig cold;
  cold.cache_capacity = 4;
  ReplayConfig warm = cold;
  warm.warmup_fraction = 0.5;
  const auto r_cold = replay_trace(t, p1, cold);
  const auto r_warm = replay_trace(t, p2, warm);
  // Warm measurement has no compulsory misses -> strictly better ratio.
  EXPECT_GT(r_warm.hit_ratio(), r_cold.hit_ratio());
  EXPECT_DOUBLE_EQ(r_warm.hit_ratio(), 1.0);
}

TEST(Replay, AccuracyAccountsUnusedPrefetches) {
  MicroTrace mt;
  const FileId a = mt.file("a"), b = mt.file("b"), c = mt.file("c");
  // First successor of a is b (once); later always c. FS keeps predicting
  // b which is never accessed again => low accuracy.
  mt.access(a);
  mt.access(b);
  for (int i = 0; i < 20; ++i) {
    mt.access(a);
    mt.access(c);
  }
  const Trace t = mt.build();
  FirstSuccessorPredictor p;
  ReplayConfig cfg;
  cfg.cache_capacity = 2;
  const auto result = replay_trace(t, p, cfg);
  EXPECT_LT(result.prefetch_accuracy(), 0.5);
}

}  // namespace
}  // namespace farmer
