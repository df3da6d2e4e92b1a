// Layer tracing from outside the library: forwarding decorators around the
// two public seams a request crosses, timed with steady_clock.
//
//   serve() -- ServePredictor -- FpaPredictor -- TracedMiner -- backend
//   (storage)   (prefetch span)                  (core spans)
//
// A decorator adds its span's duration to a per-method accumulator instead
// of keeping every span; self times follow by subtraction (a predict span
// minus the query spans it caused, serve() wall minus the predictor spans).
// Query spans are fine-grained (tens of ns) and FPA issues dozens per
// predict, so under FPA they are timed only inside every kQuerySampleEvery-th
// predict; call counts are kept for every call.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/correlation_miner.hpp"
#include "measure.hpp"
#include "prefetch/predictor.hpp"

namespace perfbench {

/// Summed duration and call count of one span kind.
struct SpanAcc {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};

  void add(std::uint64_t d) noexcept {
    ns.fetch_add(d, std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(ns.load(std::memory_order_relaxed)) * 1e-9;
  }
  [[nodiscard]] double mean_ns() const noexcept {
    const std::uint64_t c = calls.load(std::memory_order_relaxed);
    return c ? static_cast<double>(ns.load(std::memory_order_relaxed)) /
                   static_cast<double>(c)
             : 0.0;
  }
};

/// Every accumulator one traced repetition fills. Ingest spans may come
/// from one thread while queries come from another; `snapshot_ns` and the
/// prefetch fields are written by a single querying thread only.
struct Tracer {
  static constexpr std::uint64_t kQuerySampleEvery = 16;

  // core: CorrelationMiner calls
  SpanAcc observe, observe_batch, flush, stats;
  SpanAcc snapshot, degree, frequency, similarity, count;
  std::atomic<std::uint64_t> batch_records{0};
  std::atomic<std::uint64_t> query_calls{0};  ///< every query, timed or not
  std::atomic<std::uint64_t> snapshot_calls{0};
  std::atomic<std::uint64_t> snapshot_entries{0};
  std::vector<double> snapshot_ns;  ///< every timed snapshot span
  /// When set, query calls are timed (always for a dedicated reader; only
  /// inside sampled predicts under FPA).
  std::atomic<bool> time_queries{false};

  // prefetch: Predictor::predict
  SpanAcc predict;          ///< every predict
  SpanAcc predict_sampled;  ///< predicts whose child queries were timed
  std::uint64_t sampled_child_ns = 0;  ///< query ns inside sampled predicts
  std::uint64_t candidates = 0;        ///< predictions emitted

  [[nodiscard]] std::uint64_t query_ns() const noexcept {
    const auto r = std::memory_order_relaxed;
    return snapshot.ns.load(r) + degree.ns.load(r) + frequency.ns.load(r) +
           similarity.ns.load(r) + count.ns.load(r);
  }
  /// Share of predict time spent inside miner queries, from the sampled
  /// predicts (0 when none was sampled).
  [[nodiscard]] double query_share_of_predict() const noexcept {
    const std::uint64_t p = predict_sampled.ns.load(std::memory_order_relaxed);
    return p ? std::min(1.0, static_cast<double>(sampled_child_ns) /
                                 static_cast<double>(p))
             : 0.0;
  }
};

/// Times one call into `acc` when `on`.
template <typename F>
auto timed(SpanAcc& acc, bool on, F&& f) {
  if (!on) return f();
  const std::uint64_t t0 = now_ns();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    acc.add(now_ns() - t0);
  } else {
    auto r = f();
    acc.add(now_ns() - t0);
    return r;
  }
}

/// Forwarding CorrelationMiner that records a span per call.
class TracedMiner final : public farmer::CorrelationMiner {
 public:
  TracedMiner(std::unique_ptr<farmer::CorrelationMiner> inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}

  void observe(const farmer::TraceRecord& rec) override {
    timed(t_.observe, true, [&] { inner_->observe(rec); });
  }
  void observe_batch(std::span<const farmer::TraceRecord> recs) override {
    timed(t_.observe_batch, true, [&] { inner_->observe_batch(recs); });
    t_.batch_records.fetch_add(recs.size(), std::memory_order_relaxed);
  }
  void flush() override {
    timed(t_.flush, true, [&] { inner_->flush(); });
  }
  [[nodiscard]] farmer::CorrelatorView snapshot(
      farmer::FileId f) const override {
    const bool on = query_begin();
    const std::uint64_t t0 = on ? now_ns() : 0;
    farmer::CorrelatorView v = inner_->snapshot(f);
    if (on) {
      const std::uint64_t d = now_ns() - t0;
      t_.snapshot.add(d);
      t_.snapshot_ns.push_back(static_cast<double>(d));
    }
    t_.snapshot_calls.fetch_add(1, std::memory_order_relaxed);
    t_.snapshot_entries.fetch_add(v.size(), std::memory_order_relaxed);
    return v;
  }
  [[nodiscard]] double correlation_degree(farmer::FileId a,
                                          farmer::FileId b) const override {
    return timed(t_.degree, query_begin(),
                 [&] { return inner_->correlation_degree(a, b); });
  }
  [[nodiscard]] double semantic_similarity(farmer::FileId a,
                                           farmer::FileId b) const override {
    return timed(t_.similarity, query_begin(),
                 [&] { return inner_->semantic_similarity(a, b); });
  }
  [[nodiscard]] std::uint64_t access_count(farmer::FileId f) const override {
    return timed(t_.count, query_begin(),
                 [&] { return inner_->access_count(f); });
  }
  [[nodiscard]] double access_frequency(farmer::FileId a,
                                        farmer::FileId b) const override {
    return timed(t_.frequency, query_begin(),
                 [&] { return inner_->access_frequency(a, b); });
  }
  [[nodiscard]] farmer::MinerStats stats() const override {
    return timed(t_.stats, true, [&] { return inner_->stats(); });
  }
  void save(const std::string& dir) override { inner_->save(dir); }
  void load(const std::string& dir) override { inner_->load(dir); }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }

 private:
  /// Counts the query and says whether to time it.
  bool query_begin() const noexcept {
    t_.query_calls.fetch_add(1, std::memory_order_relaxed);
    return t_.time_queries.load(std::memory_order_relaxed);
  }

  std::unique_ptr<farmer::CorrelationMiner> inner_;
  Tracer& t_;
};

/// Forwarding Predictor handed to serve(). Always records each demand
/// request's wall cost — from its observe() to the end of the predict() the
/// MDS issues for it — which is the serving latency the benchmark reports.
/// With a Tracer it also records predict spans and samples query spans.
class ServePredictor final : public farmer::Predictor {
 public:
  ServePredictor(std::unique_ptr<farmer::Predictor> inner, Tracer* t)
      : inner_(std::move(inner)), t_(t) {}

  void observe(const farmer::TraceRecord& rec) override {
    request_start_ = now_ns();
    inner_->observe(rec);
  }
  void predict(const farmer::TraceRecord& rec, std::size_t limit,
               farmer::PredictionList& out) override {
    const std::size_t before = out.size();
    if (t_ == nullptr) {
      inner_->predict(rec, limit, out);
    } else {
      const bool sample = t_->predict.calls.load(std::memory_order_relaxed) %
                              Tracer::kQuerySampleEvery ==
                          0;
      const std::uint64_t q0 = sample ? t_->query_ns() : 0;
      t_->time_queries.store(sample, std::memory_order_relaxed);
      const std::uint64_t t0 = now_ns();
      inner_->predict(rec, limit, out);
      const std::uint64_t d = now_ns() - t0;
      t_->time_queries.store(false, std::memory_order_relaxed);
      t_->predict.add(d);
      if (sample) {
        t_->predict_sampled.add(d);
        t_->sampled_child_ns += t_->query_ns() - q0;
      }
      t_->candidates += out.size() - before;
    }
    request_ns_.push_back(static_cast<double>(now_ns() - request_start_));
  }
  void flush() override { inner_->flush(); }
  [[nodiscard]] const char* name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::size_t footprint_bytes() const override {
    return inner_->footprint_bytes();
  }
  [[nodiscard]] farmer::CorrelationMiner* miner() noexcept override {
    return inner_->miner();
  }

  /// Per-demand-request wall cost in ns, in arrival order.
  [[nodiscard]] const std::vector<double>& request_ns() const noexcept {
    return request_ns_;
  }

 private:
  std::unique_ptr<farmer::Predictor> inner_;
  Tracer* t_;
  std::uint64_t request_start_ = 0;
  std::vector<double> request_ns_;
};

}  // namespace perfbench
