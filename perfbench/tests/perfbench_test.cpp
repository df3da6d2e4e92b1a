// The benchmark's own tests: every workload passes its output check at tiny
// scale, traced and untraced, and a miner that silently drops one record, or
// throws, is caught by every workload.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench {
namespace {

perfbench::RunOptions tiny(const std::string& workload, bool trace) {
  RunOptions o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = 0.05;
  o.trace = trace;
  o.scale = 0.02;
  return o;
}

enum class Fault { kDrop, kThrow };

/// Forwards everything except the `at`-th ingested record, which it drops
/// silently or answers with an exception.
class FaultyMiner final : public farmer::CorrelationMiner {
 public:
  FaultyMiner(std::unique_ptr<farmer::CorrelationMiner> inner, Fault fault,
              std::uint64_t at)
      : inner_(std::move(inner)), fault_(fault), at_(at) {}

  void observe(const farmer::TraceRecord& rec) override {
    if (seen_ == at_ && fault_ == Fault::kThrow)
      throw std::runtime_error("injected ingest failure");
    if (seen_++ != at_) inner_->observe(rec);
  }
  void observe_batch(std::span<const farmer::TraceRecord> recs) override {
    if (at_ < seen_ || at_ >= seen_ + recs.size()) {
      seen_ += recs.size();
      inner_->observe_batch(recs);
      return;
    }
    if (fault_ == Fault::kThrow)
      throw std::runtime_error("injected ingest failure");
    std::vector<farmer::TraceRecord> kept(recs.begin(), recs.end());
    kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(at_ - seen_));
    seen_ += recs.size();
    inner_->observe_batch(kept);
  }
  void flush() override { inner_->flush(); }
  [[nodiscard]] farmer::CorrelatorView snapshot(
      farmer::FileId f) const override {
    return inner_->snapshot(f);
  }
  [[nodiscard]] double correlation_degree(farmer::FileId a,
                                          farmer::FileId b) const override {
    return inner_->correlation_degree(a, b);
  }
  [[nodiscard]] double semantic_similarity(farmer::FileId a,
                                           farmer::FileId b) const override {
    return inner_->semantic_similarity(a, b);
  }
  [[nodiscard]] std::uint64_t access_count(farmer::FileId f) const override {
    return inner_->access_count(f);
  }
  [[nodiscard]] double access_frequency(farmer::FileId a,
                                        farmer::FileId b) const override {
    return inner_->access_frequency(a, b);
  }
  [[nodiscard]] farmer::MinerStats stats() const override {
    return inner_->stats();
  }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }

 private:
  std::unique_ptr<farmer::CorrelationMiner> inner_;
  Fault fault_;
  std::uint64_t at_;
  std::uint64_t seen_ = 0;
};

class Workload : public ::testing::TestWithParam<std::string> {};

TEST_P(Workload, TinyRunPassesOutputCheck) {
  for (const bool trace : {false, true}) {
    const Outcome out = run_workload(tiny(GetParam(), trace));
    for (const std::string& e : out.errors) ADD_FAILURE() << e;
    EXPECT_TRUE(out.correct());
    EXPECT_GT(out.attempted, 0u);
    EXPECT_EQ(out.failed, 0u);
    const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
    ASSERT_EQ(out.metrics.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(out.metrics[i].name, specs[i].name);
      EXPECT_EQ(out.metrics[i].unit, specs[i].unit);
      if (!trace) {
        EXPECT_GT(out.metrics[i].value, 0.0) << specs[i].name;
      }
    }
    if (trace) {
      double total = 0.0;
      for (const auto& row : out.attribution) total += row.second;
      EXPECT_GT(total, 0.0);
    }
  }
}

TEST_P(Workload, FaultyMinerIsAnError) {
  for (const Fault fault : {Fault::kDrop, Fault::kThrow}) {
    RunOptions o = tiny(GetParam(), false);
    o.wrap = [fault](std::unique_ptr<farmer::CorrelationMiner> m)
        -> std::unique_ptr<farmer::CorrelationMiner> {
      return std::make_unique<FaultyMiner>(std::move(m), fault, 100);
    };
    const Outcome out = run_workload(o);
    EXPECT_FALSE(out.correct());
    EXPECT_GT(out.failed, 0u);
    EXPECT_LE(out.failed, out.attempted);
  }
}

INSTANTIATE_TEST_SUITE_P(All, Workload,
                         ::testing::ValuesIn(workload_names()));

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW((void)run_workload(tiny("no_such_workload", false)),
               std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
