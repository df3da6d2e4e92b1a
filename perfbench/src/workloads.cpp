#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <exception>
#include <bit>
#include <filesystem>
#include <map>
#include <span>
#include <stdexcept>
#include <thread>

#include "api/miner_factory.hpp"
#include "common/hash.hpp"
#include "core/config.hpp"
#include "prefetch/fpa.hpp"
#include "serve/harness.hpp"
#include "trace/generator.hpp"
#include "traced.hpp"

namespace perfbench {
namespace {

using farmer::CorrelationMiner;
using farmer::MinerOptions;
using farmer::MinerStats;
using farmer::Trace;
using farmer::TraceKind;
using farmer::TraceRecord;

constexpr std::size_t kShards = 4;
/// Records per observe_batch call on the ingest workloads; each call is one
/// latency sample. Large enough that handing a call's shard slices to the
/// apply lane is a small share of it, so a lane woken late on a busy host
/// moves the result little.
constexpr std::size_t kChunk = 4096;
/// Set-ups per run: at least kMinSetups, more while they have taken less
/// than kSetupSeconds in all; setup_s is their median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 25;
constexpr double kSetupSeconds = 3.0;
/// Measured repetitions per run at the least (one traced, one untraced).
constexpr std::size_t kMinReps = 2;
constexpr std::size_t kMaxErrors = 16;

const std::vector<MetricSpec> kEndToEnd = {
    {"throughput_rps", "1/s"}, {"latency_p50_us", "us"}, {"setup_s", "s"},
    {"model_mb", "MB"},        {"peak_rss_mb", "MB"},
};

const std::vector<MetricSpec> kPerLayer = {
    // The workloads' own figures, measured on untraced repetitions.
    {"latency_p99_us", "us"},
    {"ingest_rps", "1/s"},
    {"serve_rps", "1/s"},
    {"query_p50_us", "us"},
    {"query_p99_us", "us"},
    {"visible_lag_p50_ms", "ms"},
    {"demand_hit_ratio", "ratio"},
    {"prefetch_precision", "ratio"},
    {"mean_response_us", "us"},
    {"p99_response_us", "us"},
    {"recover_s", "s"},
    {"disk_bytes_per_record", "bytes"},
    {"error_rate", "ratio"},
    // Layers, timed from outside through the decorators in traced.hpp.
    {"core.observe_batch_ns_per_rec", "ns"},
    {"core.observe_ns", "ns"},
    {"core.flush_ms", "ms"},
    {"core.pending_max", "count"},
    {"core.pairs_evaluated_per_rec", "count"},
    {"core.acceptance_rate", "ratio"},
    {"core.apply_parallel_share", "ratio"},
    {"core.apply_lanes", "count"},
    {"core.publishes", "count"},
    {"core.files_cloned_per_publish", "count"},
    {"core.bytes_shared", "bytes"},
    {"core.query.snapshot_ns_p50", "ns"},
    {"core.query.snapshot_ns_p99", "ns"},
    {"core.query.snapshot_len_mean", "count"},
    {"core.query.degree_ns", "ns"},
    {"core.query.frequency_ns", "ns"},
    {"core.query.similarity_ns", "ns"},
    {"core.query.count_ns", "ns"},
    {"core.query.calls_per_predict", "count"},
    {"prefetch.predict_self_ns", "ns"},
    {"prefetch.candidates_per_predict", "count"},
    {"prefetch.emit_ratio", "ratio"},
    {"storage.mds_self_s", "s"},
    {"storage.prefetch_batches", "count"},
    {"storage.duplicate_suppressed", "count"},
    {"cache.evictions", "count"},
    {"cache.pollution_ratio", "ratio"},
    {"sim.duration_s", "s"},
    {"persist.overhead_s", "s"},
    {"persist.save_s", "s"},
    {"persist.checkpoint_bytes", "bytes"},
    {"kvstore.wal_bytes", "bytes"},
    {"proc.cpu_util", "cores"},
    {"trace.generate_s", "s"},
    {"trace.records", "count"},
    {"trace.files", "count"},
    {"bench.trace_overhead", "ratio"},
    {"bench.unattributed_share", "ratio"},
    {"bench.gen_late_max_ms", "ms"},
};

const std::vector<std::string> kWorkloads = {"bulk_ingest", "online_serve",
                                             "async_mixed", "durable_ingest"};

/// Timings are taken from the best repetition of a run: other tenants of a
/// shared host only ever slow a repetition down, for seconds to minutes at a
/// time, so the fastest one is the steadiest estimate of the program's own
/// cost. The spread printed beside a value is still that of all repetitions.
double best_rate(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}
double best_time(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

/// State of one run: the options, the outcome being built and the metric
/// values set so far (units come from the declarations above).
struct Run {
  explicit Run(const RunOptions& opts) : o(opts) {}

  const RunOptions& o;
  Outcome out;
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;
  Tracer tracer;  ///< accumulates over the traced repetitions
  bool rep_failed = false;  ///< a check of the current repetition failed

  void e(const std::string& n, double v, std::uint64_t samples,
         double spread = 0.0) {
    e2e[n] = Metric{n, v, "", samples, spread};
  }
  /// End-to-end metric: the median of per-repetition values.
  void e_median(const std::string& n, const std::vector<double>& reps) {
    e(n, median(reps), reps.size(), relative_iqr(reps));
  }
  /// End-to-end rate: the best (highest) per-repetition value.
  void e_best_rate(const std::string& n, const std::vector<double>& reps) {
    e(n, best_rate(reps), reps.size(), relative_iqr(reps));
  }
  void l(const std::string& n, double v, std::uint64_t samples = 1) {
    layer[n] = Metric{n, v, "", samples};
  }
  void fig(const std::string& n, double v, const std::string& unit,
           std::uint64_t samples, double spread = 0.0) {
    out.figures.push_back(Metric{n, v, unit, samples, spread});
  }
  void fig_median(const std::string& n, const std::vector<double>& reps,
                  const std::string& unit) {
    fig(n, median(reps), unit, reps.size(), relative_iqr(reps));
  }
  void fig_best_rate(const std::string& n, const std::vector<double>& reps,
                     const std::string& unit) {
    fig(n, best_rate(reps), unit, reps.size(), relative_iqr(reps));
  }
  void fig_best_time(const std::string& n, const std::vector<double>& reps,
                     const std::string& unit) {
    fig(n, best_time(reps), unit, reps.size(), relative_iqr(reps));
  }
  void info(const std::string& k, const std::string& v) {
    out.info.emplace_back(k, v);
  }
  /// Records a failed check; repeat() counts the repetition's operations
  /// as failed once, however many of its checks failed.
  void fail(const std::string& why) {
    rep_failed = true;
    if (out.errors.size() < kMaxErrors) out.errors.push_back(why);
  }
  /// Self seconds per layer over the traced wall; the remainder is
  /// reported as unattributed.
  void attribute(double wall,
                 std::vector<std::pair<std::string, double>> rows) {
    double covered = 0.0;
    for (const auto& r : rows) covered += r.second;
    rows.emplace_back("unattributed", wall - covered);
    out.attribution = std::move(rows);
    l("bench.unattributed_share", wall > 0 ? (wall - covered) / wall : 0.0);
  }
};

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

farmer::FarmerConfig config_for(const Trace& t) {
  farmer::FarmerConfig cfg;
  cfg.attributes = t.has_paths ? farmer::AttributeMask::all_with_path()
                               : farmer::AttributeMask::all_with_fileid();
  return cfg;
}

class Hasher {
 public:
  void add(std::uint64_t v) noexcept {
    h_ = farmer::mix64(h_ ^ v) + 0x9E3779B97F4A7C15ull;
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x243F6A8885A308D3ull;
};

std::uint64_t trace_hash(const Trace& t) {
  Hasher h;
  h.add(t.file_count());
  for (const TraceRecord& r : t.records) {
    h.add(r.timestamp);
    h.add(r.file.value());
    h.add(r.user.value());
    h.add(r.process.value());
    h.add(r.host.value());
    h.add(r.job.value());
    h.add(r.path.value());
    h.add(r.user_token.value());
    h.add(r.process_token.value());
    h.add(r.host_token.value());
    h.add(r.dev_token.value());
    h.add(r.fid_token.value());
    h.add(r.program_token.value());
    h.add(r.size_bytes);
    h.add(static_cast<std::uint64_t>(r.op));
  }
  return h.value();
}

/// Digest of the model as queries see it: every file's Correlator List
/// (files and degree bits, in order) and access count.
std::uint64_t model_digest(const CorrelationMiner& m, std::size_t files) {
  Hasher h;
  for (std::size_t f = 0; f < files; ++f) {
    const farmer::FileId id(static_cast<std::uint32_t>(f));
    h.add(m.access_count(id));
    const farmer::CorrelatorView v = m.snapshot(id);
    h.add(v.size());
    for (const farmer::Correlator& c : v) {
      h.add(c.file.value());
      h.add(std::bit_cast<std::uint32_t>(c.degree));
    }
  }
  return h.value();
}

/// The miner under test: the optional fault wrapper, then the tracing
/// decorator. `checked` is the miner below the tracer, so output checks
/// do not count as traced queries.
struct Instrumented {
  std::unique_ptr<CorrelationMiner> top;
  CorrelationMiner* checked = nullptr;
};

Instrumented instrument(std::unique_ptr<CorrelationMiner> m, const Run& run,
                        Tracer* t) {
  if (run.o.wrap) m = run.o.wrap(std::move(m));
  Instrumented i;
  i.checked = m.get();
  i.top = t ? std::make_unique<TracedMiner>(std::move(m), *t) : std::move(m);
  return i;
}

MinerOptions sharded_options(std::size_t apply_threads) {
  MinerOptions mo;
  mo.shards = kShards;
  mo.apply_threads = apply_threads;
  return mo;
}

/// Reference model digest: per-record serial replay through "sharded"
/// with one apply lane.
std::uint64_t serial_reference(const Trace& t) {
  const auto m = farmer::make_miner("sharded", config_for(t), t.dict,
                                    sharded_options(1));
  for (const TraceRecord& r : t.records) m->observe(r);
  m->flush();
  return model_digest(*m, t.file_count());
}

/// Generates the trace and builds one miner, several times; setup_s is the
/// median. Every generation must hash the same. Returns the last trace.
template <typename Gen, typename Make>
Trace setup(Run& run, Gen&& gen, Make&& make) {
  std::vector<double> total;
  std::vector<double> generate;
  Trace kept;
  std::uint64_t first = 0;
  for (int i = 0; i < kMinSetups ||
                  (i < kMaxSetups && sum(total) < kSetupSeconds);
       ++i) {
    const auto t0 = Clock::now();
    Trace t = gen();
    generate.push_back(seconds_since(t0));
    auto built = make(t);
    total.push_back(seconds_since(t0));
    built.reset();
    const std::uint64_t h = trace_hash(t);
    if (i == 0) first = h;
    if (h != first) run.fail("trace generation differs between set-ups");
    kept = std::move(t);
  }
  run.e_median("setup_s", total);
  run.l("trace.generate_s", median(generate), generate.size());
  run.l("trace.records", static_cast<double>(kept.records.size()));
  run.l("trace.files", static_cast<double>(kept.file_count()));
  run.info("trace_name", kept.name);
  run.info("records", std::to_string(kept.records.size()));
  run.info("files", std::to_string(kept.file_count()));
  return kept;
}

/// One untimed warm-up repetition, then repetitions until `seconds` have
/// passed (at least kMinReps); with tracing on they alternate untraced and
/// traced. `rep(traced, warm)` returns the operations it attempted; a
/// throwing repetition counts `ops`. All of a repetition's operations count
/// as failed when any of its checks fails.
template <typename Rep>
void repeat(Run& run, std::uint64_t ops, Rep&& rep) {
  const auto once = [&](bool traced, bool warm) {
    run.rep_failed = false;
    std::uint64_t attempted = ops;
    try {
      attempted = rep(traced, warm);
    } catch (const std::exception& ex) {
      run.fail(std::string("exception: ") + ex.what());
    }
    run.out.attempted += attempted;
    if (run.rep_failed) run.out.failed += attempted;
  };
  // Peak memory of one repetition beside the trace: set-up transients are
  // excluded, and later repetitions would only add allocator fragmentation
  // that depends on how many fit the run.
  reset_peak_rss();
  once(false, true);
  run.e("peak_rss_mb", static_cast<double>(peak_rss_bytes()) / 1e6, 1);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < kMinReps || seconds_since(t0) < run.o.seconds;
       ++i)
    once(run.o.trace && i % 2 == 1, false);
}

void check_digest(Run& run, const CorrelationMiner& m, std::size_t files,
                  std::uint64_t want, const std::string& what) {
  if (model_digest(m, files) != want)
    run.fail(what + ": model differs from the reference replay");
}

/// Feeds `recs` through observe_batch in kChunk slices; appends each call's
/// wall time (ns) to `lat` when given.
void ingest_chunks(CorrelationMiner& m, std::span<const TraceRecord> recs,
                   std::vector<double>* lat) {
  for (std::size_t i = 0; i < recs.size(); i += kChunk) {
    const auto part = recs.subspan(i, std::min(kChunk, recs.size() - i));
    const std::uint64_t t0 = now_ns();
    m.observe_batch(part);
    if (lat) lat->push_back(static_cast<double>(now_ns() - t0));
  }
}

/// Latency percentiles per repetition. A run reports the best repetition's,
/// so slow repetitions cannot move it and memory does not grow with the
/// run's length.
struct Percentiles {
  std::vector<double> p50, p99;
  std::uint64_t samples = 0;

  void add(const std::vector<double>& ns) {
    if (ns.empty()) return;
    p50.push_back(quantile(ns, 0.50));
    p99.push_back(quantile(ns, 0.99));
    samples += ns.size();
  }
  void report(Run& run, const std::string& p50_name,
              const std::string& p99_name, const std::string& unit,
              double scale) const {
    run.fig(p50_name, best_time(p50) / scale, unit, samples,
            relative_iqr(p50));
    run.fig(p99_name, best_time(p99) / scale, unit, samples,
            relative_iqr(p99));
  }
};

/// The workload's operation latency (ns samples): latency_p50_us is
/// end-to-end, latency_p99_us a figure.
void latency(Run& run, const Percentiles& ns) {
  run.e("latency_p50_us", best_time(ns.p50) / 1e3, ns.samples,
        relative_iqr(ns.p50));
  run.fig("latency_p99_us", best_time(ns.p99) / 1e3, "us", ns.samples,
          relative_iqr(ns.p99));
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Counters every backend reports through stats().
void miner_layer(Run& run, const MinerStats& s, std::size_t lanes) {
  const auto req = static_cast<double>(s.requests);
  run.l("core.pairs_evaluated_per_rec",
        ratio(static_cast<double>(s.pairs_evaluated), req));
  run.l("core.acceptance_rate", s.acceptance_rate());
  run.l("core.apply_parallel_share",
        ratio(static_cast<double>(s.apply_parallel_records), req));
  run.l("core.apply_lanes", static_cast<double>(lanes));
  run.l("core.publishes", static_cast<double>(s.publishes));
  run.l("core.files_cloned_per_publish",
        ratio(static_cast<double>(s.files_cloned),
              static_cast<double>(s.publishes)));
  run.l("core.bytes_shared", static_cast<double>(s.bytes_shared));
}

/// Ingest-path spans of the traced repetitions.
void ingest_layer(Run& run) {
  const Tracer& tr = run.tracer;
  run.l("core.observe_batch_ns_per_rec",
        ratio(static_cast<double>(tr.observe_batch.ns.load()),
              static_cast<double>(tr.batch_records.load())));
  run.l("core.flush_ms", tr.flush.mean_ns() / 1e6, tr.flush.calls.load());
}

void trace_overhead(Run& run, const std::vector<double>& traced,
                    const std::vector<double>& untraced) {
  run.l("bench.trace_overhead", ratio(median(traced), median(untraced)),
        traced.size());
}

// ---------------------------------------------------------------------------
// bulk_ingest — why: all the time goes to the observe kernel (extract,
// graph, CoMiner pairs, list refresh) and to shard partition/apply over a
// working set far larger than the CPU caches. Skips queries, prediction and
// persistence. Left out of BENCHMARK.json: on a shared host its throughput
// spread between runs of the same code beyond the bound (perfbench/README.md);
// durable_ingest measures the same layers.
void bulk_ingest(Run& run) {
  constexpr std::size_t kLanes = 2;
  const MinerOptions mo = sharded_options(kLanes);
  const TraceKind tenants[] = {TraceKind::kLLNL, TraceKind::kHP};
  const Trace trace = setup(
      run,
      [&] {
        return farmer::make_multi_tenant_trace(tenants, run.o.seed,
                                               4.0 * run.o.scale)
            .trace;
      },
      [&](const Trace& t) {
        return farmer::make_miner("sharded", config_for(t), t.dict, mo);
      });
  run.info("miner", "sharded, 4 shards, 2 apply lanes, observe_batch of " +
                        std::to_string(kChunk) + " records + final flush");
  run.info("threads", "2 (caller + 1 apply lane)");
  const auto cfg = config_for(trace);
  const std::size_t n = trace.records.size();
  const std::uint64_t want = serial_reference(trace);

  std::vector<double> rps, wall_untraced, wall_traced;
  Percentiles chunk;
  double cpu = 0.0, cpu_wall = 0.0, footprint = 0.0;
  MinerStats last;
  repeat(run, n, [&](bool traced, bool warm) -> std::uint64_t {
    Instrumented m =
        instrument(farmer::make_miner("sharded", cfg, trace.dict, mo), run,
                   traced ? &run.tracer : nullptr);
    std::vector<double> chunk_ns;
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    ingest_chunks(*m.top, trace.records, &chunk_ns);
    m.top->flush();
    const double wall = seconds_since(t0);
    const double used = cpu_seconds() - c0;
    check_digest(run, *m.checked, trace.file_count(), want, "bulk_ingest");
    if (!warm) {
      footprint = static_cast<double>(m.checked->footprint_bytes());
      last = m.checked->stats();
      if (traced) {
        wall_traced.push_back(wall);
      } else {
        wall_untraced.push_back(wall);
        rps.push_back(static_cast<double>(n) / wall);
        chunk.add(chunk_ns);
        cpu += used;
        cpu_wall += wall;
      }
    }
    return n;
  });

  run.e_best_rate("throughput_rps", rps);
  latency(run, chunk);
  run.e("model_mb", footprint / 1e6, 1);
  run.fig_best_rate("ingest_rps", rps, "1/s");
  if (!run.o.trace) return;
  const Tracer& tr = run.tracer;
  ingest_layer(run);
  run.l("proc.cpu_util", ratio(cpu, cpu_wall), rps.size());
  miner_layer(run, last, kLanes);
  trace_overhead(run, wall_traced, wall_untraced);
  run.attribute(sum(wall_traced),
                {{"core.observe_batch", tr.observe_batch.seconds()},
                 {"core.flush", tr.flush.seconds()}});
}

// ---------------------------------------------------------------------------
// online_serve — why: about 85% of the wall time is predict plus the
// multi-shard query merge; the MDS, cache and simulator take the rest.
// Skips batch apply lanes. The backend must be synchronous: an
// asynchronous miner never publishes inside a discrete-event run.
void online_serve(Run& run) {
  constexpr std::size_t kLanes = 1;
  const MinerOptions mo = sharded_options(kLanes);
  farmer::ScenarioSpec spec;
  spec.name = "online_serve";
  spec.tenants = {TraceKind::kHP};
  spec.seed = run.o.seed;
  farmer::ScenarioWorkload wl;
  wl.trace = setup(
      run,
      [&] {
        return farmer::make_paper_trace(TraceKind::kHP, run.o.seed,
                                        2.0 * run.o.scale);
      },
      [&](const Trace& t) {
        return std::make_unique<farmer::FpaPredictor>(
            farmer::make_miner("sharded", config_for(t), t.dict, mo));
      });
  const Trace& trace = wl.trace;
  wl.file_begin = {0, static_cast<std::uint32_t>(trace.file_count())};
  run.info("miner", "FPA over sharded, 4 shards, 1 apply lane; serve() with "
                    "one observe + predict per demand request");
  run.info("threads", "1 (caller)");
  const auto cfg = config_for(trace);
  const std::size_t n = trace.records.size();
  const std::uint64_t want = serial_reference(trace);

  std::vector<double> rps, wall_untraced, wall_traced;
  Percentiles request;
  double footprint = 0.0;
  bool have_first = false;
  farmer::ServingResult first, last;
  MinerStats stats;
  repeat(run, n, [&](bool traced, bool warm) -> std::uint64_t {
    Tracer* tr = traced ? &run.tracer : nullptr;
    Instrumented m = instrument(
        farmer::make_miner("sharded", cfg, trace.dict, mo), run, tr);
    CorrelationMiner* checked = m.checked;
    ServePredictor sp(std::make_unique<farmer::FpaPredictor>(std::move(m.top)),
                      tr);
    const auto t0 = Clock::now();
    farmer::ServingResult r = farmer::serve(spec, wl, sp);
    const double wall = seconds_since(t0);

    // Output checks: the windows sum to the totals, every request got a
    // response, the simulation repeats exactly, and the model equals the
    // per-record replay.
    std::uint64_t demand = 0, hits = 0, responses = 0, inserted = 0;
    for (const farmer::WindowStats& w : r.windows) {
      demand += w.demand_requests;
      hits += w.demand_hits;
      responses += w.responses;
      inserted += w.prefetch_inserted;
    }
    if (r.requests != n || demand != n || responses != n ||
        r.response.count() != n || r.cache.demand.denominator() != n ||
        hits != r.cache.demand.numerator() ||
        inserted != r.cache.prefetch_inserted ||
        sp.request_ns().size() != n)
      run.fail("online_serve: window counters disagree with run totals "
               "or a request got no response");
    if (have_first &&
        (r.cache.demand.numerator() != first.cache.demand.numerator() ||
         r.cache.prefetch_used != first.cache.prefetch_used ||
         r.response.mean() != first.response.mean() ||
         r.sim_duration != first.sim_duration))
      run.fail("online_serve: simulation differs between repetitions");
    check_digest(run, *checked, trace.file_count(), want, "online_serve");
    if (!have_first) {
      first = r;
      have_first = true;
    }
    if (!warm) {
      footprint = static_cast<double>(checked->footprint_bytes());
      stats = checked->stats();
      if (traced) {
        wall_traced.push_back(wall);
      } else {
        wall_untraced.push_back(wall);
        rps.push_back(static_cast<double>(n) / wall);
        request.add(sp.request_ns());
      }
      last = std::move(r);
    }
    return n;
  });

  run.e_best_rate("throughput_rps", rps);
  latency(run, request);
  run.e("model_mb", footprint / 1e6, 1);
  run.fig_best_rate("serve_rps", rps, "1/s");
  const std::uint64_t reqs = last.requests;
  run.fig("demand_hit_ratio", last.demand_hit_ratio(), "ratio", reqs);
  run.fig("prefetch_precision", last.cache.prefetch_accuracy(), "ratio",
          last.cache.prefetch_inserted);
  run.fig("mean_response_us", last.response.mean(), "us", reqs);
  run.fig("p99_response_us", static_cast<double>(last.response.p99()), "us",
          reqs);
  if (!run.o.trace) return;
  const Tracer& tr = run.tracer;
  const double traced_wall = sum(wall_traced);
  const double predict_s = tr.predict.seconds();
  const double query_s = predict_s * tr.query_share_of_predict();
  const double observe_s = tr.observe.seconds();
  const double mds_s = traced_wall - predict_s - observe_s;
  const auto predicts = static_cast<double>(tr.predict.calls.load());
  run.l("core.observe_ns", tr.observe.mean_ns(), tr.observe.calls.load());
  run.l("core.query.snapshot_ns_p50", quantile(tr.snapshot_ns, 0.50),
        tr.snapshot_ns.size());
  run.l("core.query.snapshot_ns_p99", quantile(tr.snapshot_ns, 0.99),
        tr.snapshot_ns.size());
  run.l("core.query.snapshot_len_mean",
        ratio(static_cast<double>(tr.snapshot_entries.load()),
              static_cast<double>(tr.snapshot_calls.load())));
  run.l("core.query.degree_ns", tr.degree.mean_ns(), tr.degree.calls.load());
  run.l("core.query.frequency_ns", tr.frequency.mean_ns(),
        tr.frequency.calls.load());
  run.l("core.query.similarity_ns", tr.similarity.mean_ns(),
        tr.similarity.calls.load());
  run.l("core.query.count_ns", tr.count.mean_ns(), tr.count.calls.load());
  run.l("core.query.calls_per_predict",
        ratio(static_cast<double>(tr.query_calls.load()), predicts));
  run.l("prefetch.predict_self_ns",
        ratio((predict_s - query_s) * 1e9, predicts),
        tr.predict_sampled.calls.load());
  run.l("prefetch.candidates_per_predict",
        ratio(static_cast<double>(tr.candidates), predicts));
  run.l("prefetch.emit_ratio",
        ratio(static_cast<double>(tr.candidates),
              static_cast<double>(tr.snapshot_entries.load())));
  run.l("storage.mds_self_s", mds_s / static_cast<double>(wall_traced.size()),
        wall_traced.size());
  run.l("storage.prefetch_batches", static_cast<double>(last.prefetch_batches));
  run.l("storage.duplicate_suppressed",
        static_cast<double>(last.duplicate_suppressed));
  run.l("cache.evictions", static_cast<double>(last.cache.evictions));
  run.l("cache.pollution_ratio", last.cache.pollution_ratio());
  run.l("sim.duration_s", static_cast<double>(last.sim_duration) * 1e-6);
  miner_layer(run, stats, kLanes);
  trace_overhead(run, wall_traced, wall_untraced);
  run.attribute(traced_wall, {{"core.observe", observe_s},
                              {"core.query", query_s},
                              {"prefetch.predict_self", predict_s - query_s},
                              {"storage.mds_self", mds_s}});
}

// ---------------------------------------------------------------------------
// async_mixed — why: the same mining layer used differently, with writes
// beside reads; the only workload that exercises the MPSC queue, drain, COW
// publish and RCU table. One open-loop producer and one open-loop reader,
// both on fixed schedules well below saturation, so the backlog stays flat.
constexpr double kAsyncRecordsPerSec = 100'000.0;
constexpr std::size_t kAsyncBatch = 256;
constexpr double kAsyncQueriesPerSec = 20'000.0;
/// How often the reader polls stats() to see which batches became visible;
/// the resolution of the visibility lag.
constexpr std::uint64_t kAsyncPollNs = 10'000;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

struct AsyncRep {
  std::vector<double> query_ns;  ///< from each query's due time
  std::vector<double> lag_ns;    ///< batch due time to visible
  double visible_s = 0.0;        ///< start to last batch visible
  double late_max_ns = 0.0;      ///< producer lateness
  std::uint64_t pending_max = 0;
  std::uint64_t queries = 0;
  std::uint64_t batches_visible = 0;
  double producer_wall = 0.0, producer_idle = 0.0;
  double reader_wall = 0.0, reader_idle = 0.0;
};

AsyncRep async_rep(CorrelationMiner& m, std::span<const TraceRecord> recs) {
  const std::size_t n = recs.size();
  const std::size_t nb = (n + kAsyncBatch - 1) / kAsyncBatch;
  const auto period = static_cast<std::uint64_t>(
      1e9 * static_cast<double>(kAsyncBatch) / kAsyncRecordsPerSec);
  const auto qperiod = static_cast<std::uint64_t>(1e9 / kAsyncQueriesPerSec);
  AsyncRep out;
  out.query_ns.reserve(static_cast<std::size_t>(
      static_cast<double>(nb * period) * 1e-9 * kAsyncQueriesPerSec) + 16);
  out.lag_ns.reserve(nb);
  std::atomic<std::size_t> submitted{0};
  std::atomic<bool> produced{false};
  std::atomic<bool> flushed{false};
  // Both generators start on a common clock shortly after the reader exists.
  const std::uint64_t t0 = now_ns() + 2'000'000;

  // Queries the file of a recently submitted record whenever one is due, and
  // polls stats() in between to see which batches became visible.
  const auto read = [&] {
    std::uint64_t q = 0, next_poll = t0, last_end = now_ns();
    const std::uint64_t begin = last_end;
    std::size_t vis = 0;
    for (;;) {
      const std::uint64_t now = now_ns();
      const std::uint64_t qdue = t0 + q * qperiod;
      if (!produced.load(std::memory_order_acquire) && now >= qdue) {
        const std::size_t k = submitted.load(std::memory_order_acquire);
        const std::size_t idx =
            k ? k - 1 - static_cast<std::size_t>(q % std::min(k, kAsyncBatch))
              : 0;
        out.reader_idle += static_cast<double>(now - last_end);
        const farmer::CorrelatorView v = m.snapshot(recs[idx].file);
        (void)v;
        last_end = now_ns();
        out.query_ns.push_back(static_cast<double>(last_end - qdue));
        ++q;
        continue;
      }
      if (now >= next_poll) {
        const bool final_poll = flushed.load(std::memory_order_acquire);
        out.reader_idle += static_cast<double>(now - last_end);
        const MinerStats s = m.stats();
        last_end = now_ns();
        out.pending_max = std::max(out.pending_max, s.pending);
        while (vis < nb &&
               std::min(n, (vis + 1) * kAsyncBatch) <= s.requests) {
          out.lag_ns.push_back(
              static_cast<double>(last_end - (t0 + vis * period)));
          ++vis;
          if (vis == nb)
            out.visible_s = static_cast<double>(last_end - t0) * 1e-9;
        }
        next_poll = now + kAsyncPollNs;
        if (vis == nb || final_poll) break;
        continue;
      }
      cpu_relax();
    }
    out.queries = q;
    out.batches_visible = vis;
    out.reader_wall = static_cast<double>(now_ns() - begin);
  };

  // Pushes each batch at its due time, then waits for the ingest barrier.
  const auto produce = [&] {
    const std::uint64_t begin = now_ns();
    for (std::size_t b = 0; b < nb; ++b) {
      const std::uint64_t due = t0 + b * period;
      const std::uint64_t before = now_ns();
      if (before < due)
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::nanoseconds(due)));
      const std::uint64_t start = now_ns();
      out.producer_idle += static_cast<double>(start - before);
      out.late_max_ns =
          std::max(out.late_max_ns, static_cast<double>(start) -
                                        static_cast<double>(due));
      const std::size_t lo = b * kAsyncBatch;
      const std::size_t hi = std::min(n, lo + kAsyncBatch);
      m.observe_batch(recs.subspan(lo, hi - lo));
      submitted.store(hi, std::memory_order_release);
    }
    produced.store(true, std::memory_order_release);
    out.producer_wall = static_cast<double>(now_ns() - begin);
    // The barrier makes every record visible; the reader's next poll is its
    // last.
    m.flush();
  };

  // A failure on either thread is rethrown once both have stopped.
  std::exception_ptr reader_error, producer_error;
  std::thread reader([&] {
    try {
      read();
    } catch (...) {
      reader_error = std::current_exception();
    }
  });
  try {
    produce();
  } catch (...) {
    producer_error = std::current_exception();
    produced.store(true, std::memory_order_release);
  }
  flushed.store(true, std::memory_order_release);
  reader.join();
  if (producer_error) std::rethrow_exception(producer_error);
  if (reader_error) std::rethrow_exception(reader_error);
  return out;
}

void async_mixed(Run& run) {
  constexpr std::size_t kLanes = 1;
  MinerOptions mo = sharded_options(kLanes);
  mo.ingest_threads = 1;
  const Trace trace = setup(
      run,
      [&] {
        return farmer::make_paper_trace(TraceKind::kHP, run.o.seed,
                                        2.0 * run.o.scale);
      },
      [&](const Trace& t) {
        return farmer::make_miner("concurrent", config_for(t), t.dict, mo);
      });
  run.info("miner", "concurrent, 4 shards, 1 ingest slot, 1 apply lane");
  run.info("load", "open loop: " + std::to_string(kAsyncBatch) +
                       "-record batches at " +
                       std::to_string(static_cast<int>(kAsyncRecordsPerSec)) +
                       " records/s; snapshot() at " +
                       std::to_string(static_cast<int>(kAsyncQueriesPerSec)) +
                       " queries/s");
  run.info("threads", "3 (producer, reader, drain)");
  const auto cfg = config_for(trace);
  const std::size_t n = trace.records.size();
  const std::span<const TraceRecord> recs(trace.records);

  // Reference: the same single-producer batch stream through synchronous
  // "sharded".
  std::uint64_t want = 0;
  {
    const auto ref = farmer::make_miner("sharded", cfg, trace.dict,
                                        sharded_options(1));
    for (std::size_t i = 0; i < n; i += kAsyncBatch)
      ref->observe_batch(recs.subspan(i, std::min(kAsyncBatch, n - i)));
    want = model_digest(*ref, trace.file_count());
  }

  std::vector<double> rps, q50_traced;
  Percentiles query, lag;
  double cpu = 0.0, cpu_wall = 0.0, footprint = 0.0, late_max = 0.0;
  double traced_wall = 0.0, prod_idle = 0.0, read_idle = 0.0;
  std::uint64_t pending_max = 0;
  MinerStats last;
  repeat(run, n, [&](bool traced, bool warm) -> std::uint64_t {
    Instrumented m =
        instrument(farmer::make_miner("concurrent", cfg, trace.dict, mo), run,
                   traced ? &run.tracer : nullptr);
    if (traced) run.tracer.time_queries.store(true);
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    AsyncRep r = async_rep(*m.top, recs);
    const double wall = seconds_since(t0);
    const double used = cpu_seconds() - c0;
    const std::uint64_t ops = n + r.queries;
    if (r.batches_visible != (n + kAsyncBatch - 1) / kAsyncBatch)
      run.fail("async_mixed: records never became visible");
    check_digest(run, *m.checked, trace.file_count(), want, "async_mixed");
    if (!warm) {
      footprint = static_cast<double>(m.checked->footprint_bytes());
      last = m.checked->stats();
      if (traced) {
        q50_traced.push_back(quantile(r.query_ns, 0.5));
        traced_wall += (r.producer_wall + r.reader_wall) * 1e-9;
        prod_idle += r.producer_idle * 1e-9;
        read_idle += r.reader_idle * 1e-9;
        pending_max = std::max(pending_max, r.pending_max);
        late_max = std::max(late_max, r.late_max_ns);
      } else {
        rps.push_back(static_cast<double>(n) / r.visible_s);
        query.add(r.query_ns);
        lag.add(r.lag_ns);
        cpu += used;
        cpu_wall += wall;
      }
    }
    return ops;
  });

  run.e_best_rate("throughput_rps", rps);
  // The producer's operation is a batch, complete once queries see it: the
  // latency metrics are the visibility lag.
  latency(run, lag);
  run.e("model_mb", footprint / 1e6, 1);
  query.report(run, "query_p50_us", "query_p99_us", "us", 1e3);
  lag.report(run, "visible_lag_p50_ms", "visible_lag_p99_ms", "ms", 1e6);
  if (!run.o.trace) return;
  const Tracer& tr = run.tracer;
  ingest_layer(run);
  run.l("core.pending_max", static_cast<double>(pending_max));
  run.l("core.query.snapshot_ns_p50", quantile(tr.snapshot_ns, 0.50),
        tr.snapshot_ns.size());
  run.l("core.query.snapshot_ns_p99", quantile(tr.snapshot_ns, 0.99),
        tr.snapshot_ns.size());
  run.l("core.query.snapshot_len_mean",
        ratio(static_cast<double>(tr.snapshot_entries.load()),
              static_cast<double>(tr.snapshot_calls.load())));
  run.l("proc.cpu_util", ratio(cpu, cpu_wall), rps.size());
  run.l("bench.gen_late_max_ms", late_max / 1e6);
  miner_layer(run, last, kLanes);
  run.l("bench.trace_overhead", ratio(median(q50_traced), median(query.p50)),
        q50_traced.size());
  run.attribute(traced_wall,
                {{"core.observe_batch", tr.observe_batch.seconds()},
                 {"core.flush", tr.flush.seconds()},
                 {"core.query", tr.snapshot.seconds()},
                 {"bench.poll", tr.stats.seconds()},
                 {"bench.idle", prod_idle + read_idle}});
}

// ---------------------------------------------------------------------------
// durable_ingest — why: the WAL, group fsync, inline checkpoints and
// recovery cost about 3.5x the in-memory ingest rate, and nothing else
// measures them. Flush policy: the backend defaults (checkpoint every
// 65536 records, WAL group commit fsyncs every 4096 records) with real
// fsync. The stream is the first kDurableRecords records of HP x4, so that
// every seed crosses the same number of checkpoints (HP x4 holds 510k-535k
// records, around the eighth checkpoint at 524288).
constexpr std::size_t kDurableRecords = 491'520;  // 7.5 x 65536

void durable_ingest(Run& run) {
  namespace fs = std::filesystem;
  constexpr std::size_t kLanes = 2;
  const MinerOptions mem = sharded_options(kLanes);
  const fs::path root = fs::absolute(fs::path(run.o.workdir)) /
                        ("durable-" + std::to_string(::getpid()));
  fs::remove_all(root);
  const auto persist = [&](const fs::path& dir) {
    MinerOptions mo = mem;
    mo.persist_dir = dir.string();
    return mo;
  };
  std::size_t setups = 0;
  const Trace trace = setup(
      run,
      [&] {
        Trace t = farmer::make_paper_trace(TraceKind::kHP, run.o.seed,
                                           4.0 * run.o.scale);
        if (t.records.size() > kDurableRecords)
          t.records.resize(kDurableRecords);
        return t;
      },
      [&](const Trace& t) {
        return farmer::make_miner(
            "sharded", config_for(t), t.dict,
            persist(root / ("setup" + std::to_string(setups++))));
      });
  run.info("miner", "sharded, 4 shards, 2 apply lanes, persist_dir set");
  run.info("flush_policy",
           "checkpoint every 65536 records, WAL group commit fsync every "
           "4096 records (backend defaults), real fsync; the timed ingest "
           "ends when the miner is dropped and its last group is synced");
  run.info("threads", "3 (caller + 1 apply lane + WAL group sync)");
  const auto cfg = config_for(trace);
  const std::size_t n = trace.records.size();
  const std::uint64_t want = serial_reference(trace);

  std::vector<double> rps, recover, disk, wall_untraced, wall_traced;
  Percentiles chunk;
  std::vector<double> overhead, save_s, ckpt_bytes, wal_bytes;
  double footprint = 0.0, cpu = 0.0, cpu_wall = 0.0;
  double close_s = 0.0;
  MinerStats last;
  std::size_t rep_no = 0;
  repeat(run, n + 1, [&](bool traced, bool warm) -> std::uint64_t {
    const fs::path dir = root / ("rep" + std::to_string(rep_no++));
    const std::uint64_t ops = n + 1;  // the records, then the recovery
    Instrumented m =
        instrument(farmer::make_miner("sharded", cfg, trace.dict, persist(dir)),
                   run, traced ? &run.tracer : nullptr);
    std::vector<double> chunk_ns;
    const double u0 = cpu_seconds();
    const auto t0 = Clock::now();
    ingest_chunks(*m.top, trace.records, &chunk_ns);
    m.top->flush();
    const double ingest = seconds_since(t0);
    double used = cpu_seconds() - u0;
    const std::uint64_t before = model_digest(*m.checked, trace.file_count());
    if (before != want)
      run.fail("durable_ingest: model differs from the reference replay");
    const double fp = static_cast<double>(m.checked->footprint_bytes());
    const MinerStats st = m.checked->stats();
    const auto c0 = Clock::now();
    const double u1 = cpu_seconds();
    m.top.reset();
    const double close = seconds_since(c0);
    used += cpu_seconds() - u1;
    const double wall = ingest + close;
    const double bytes = static_cast<double>(dir_bytes(dir.string()));
    const double ckpt =
        static_cast<double>(dir_bytes(dir.string(), "CHECKPOINT."));
    const double wal = static_cast<double>(dir_bytes(dir.string(), "wal."));

    const auto r0 = Clock::now();
    auto recovered =
        farmer::make_miner("sharded", cfg, trace.dict, persist(dir));
    const double rec = seconds_since(r0);
    if (model_digest(*recovered, trace.file_count()) != before ||
        recovered->stats().requests != n)
      run.fail("durable_ingest: recovered model differs from the "
               "pre-restart model");
    if (!warm) {
      footprint = fp;
      last = st;
      if (traced) {
        wall_traced.push_back(wall);
        close_s += close;
        const fs::path saved = root / ("save" + std::to_string(rep_no));
        const auto s0 = Clock::now();
        recovered->save(saved.string());
        save_s.push_back(seconds_since(s0));
        ckpt_bytes.push_back(ckpt);
        wal_bytes.push_back(wal);
        fs::remove_all(saved);
        // The same records into an in-memory miner: what persistence adds.
        const auto inmem = farmer::make_miner("sharded", cfg, trace.dict, mem);
        const auto m0 = Clock::now();
        ingest_chunks(*inmem, trace.records, nullptr);
        inmem->flush();
        overhead.push_back(wall - seconds_since(m0));
      } else {
        wall_untraced.push_back(wall);
        rps.push_back(static_cast<double>(n) / wall);
        chunk.add(chunk_ns);
        recover.push_back(rec);
        disk.push_back(bytes / static_cast<double>(n));
        cpu += used;
        cpu_wall += wall;
      }
    }
    recovered.reset();
    fs::remove_all(dir);
    return ops;
  });
  fs::remove_all(root);

  run.e_best_rate("throughput_rps", rps);
  latency(run, chunk);
  run.e("model_mb", footprint / 1e6, 1);
  run.fig_best_rate("ingest_rps", rps, "1/s");
  run.fig_best_time("recover_s", recover, "s");
  run.fig_median("disk_bytes_per_record", disk, "bytes");
  if (!run.o.trace) return;
  const Tracer& tr = run.tracer;
  ingest_layer(run);
  run.l("persist.overhead_s", median(overhead), overhead.size());
  run.l("persist.save_s", median(save_s), save_s.size());
  run.l("persist.checkpoint_bytes", median(ckpt_bytes), ckpt_bytes.size());
  run.l("kvstore.wal_bytes", median(wal_bytes), wal_bytes.size());
  run.l("proc.cpu_util", ratio(cpu, cpu_wall), rps.size());
  miner_layer(run, last, kLanes);
  trace_overhead(run, wall_traced, wall_untraced);
  run.attribute(sum(wall_traced),
                {{"core.observe_batch", tr.observe_batch.seconds()},
                 {"core.flush", tr.flush.seconds()},
                 {"persist.close", close_s}});
}

}  // namespace

const std::vector<std::string>& workload_names() { return kWorkloads; }
const std::vector<MetricSpec>& end_to_end_metrics() { return kEndToEnd; }
const std::vector<MetricSpec>& per_layer_metrics() { return kPerLayer; }

Outcome run_workload(const RunOptions& opts) {
  Run run(opts);
  run.info("workload", opts.workload);
  run.info("seed", std::to_string(opts.seed));
  if (opts.workload == "bulk_ingest") {
    bulk_ingest(run);
  } else if (opts.workload == "online_serve") {
    online_serve(run);
  } else if (opts.workload == "async_mixed") {
    async_mixed(run);
  } else if (opts.workload == "durable_ingest") {
    durable_ingest(run);
  } else {
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
  }
  run.info("os_threads_at_end", std::to_string(os_threads()));

  const double error_rate = ratio(static_cast<double>(run.out.failed),
                                  static_cast<double>(run.out.attempted));
  for (const char* name : {"setup_s", "model_mb", "peak_rss_mb"}) {
    const Metric& m = run.e2e.at(name);
    const auto& spec = *std::find_if(kEndToEnd.begin(), kEndToEnd.end(),
                                     [&](const MetricSpec& s) {
                                       return s.name == name;
                                     });
    run.fig(name, m.value, spec.unit, m.samples, m.spread);
  }
  run.fig("error_rate", error_rate, "ratio", run.out.attempted);

  // The workload's named figures double as per-layer metrics of the
  // traced run.
  for (const Metric& f : run.out.figures)
    if (!run.layer.count(f.name)) run.l(f.name, f.value, f.samples);

  const bool traced = opts.trace;
  for (const MetricSpec& spec : traced ? kPerLayer : kEndToEnd) {
    auto& values = traced ? run.layer : run.e2e;
    const auto it = values.find(spec.name);
    if (it == values.end() && !traced)
      throw std::logic_error("end-to-end metric " + spec.name + " not set");
    Metric m = it == values.end() ? Metric{spec.name, 0.0, spec.unit, 0}
                                  : it->second;
    m.unit = spec.unit;
    run.out.metrics.push_back(std::move(m));
  }
  return std::move(run.out);
}

}  // namespace perfbench
