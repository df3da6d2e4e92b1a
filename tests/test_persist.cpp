// Tests for the durable persistence subsystem (src/persist/): checkpoint
// save/load round-trips on every backend, factory-level auto-recovery from
// a persist directory, corrupt-checkpoint fallback, config binding, the
// checkpoint format's byte identity against the previous in-memory
// assembler, the sticky-error latch of the background checkpoint writer,
// and the crash-consistency contract — a subprocess is SIGKILLed
// mid-WAL-append and the reopened miner must answer queries
// byte-identically to a reference miner replayed over the durable prefix.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/miner_factory.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/farmer.hpp"
#include "core/sharded_farmer.hpp"
#include "persist/checkpoint.hpp"
#include "persist/persister.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"

namespace farmer {
namespace {

namespace fs = std::filesystem;

/// Small but non-trivial paper trace shared across the suite. Built eagerly
/// by every test that forks, so the child inherits it instead of rebuilding.
const Trace& trace() {
  static const Trace t = make_paper_trace(TraceKind::kHP, 77, 0.08);
  return t;
}

FarmerConfig test_cfg() {
  FarmerConfig cfg;
  cfg.attributes = trace().has_paths ? AttributeMask::all_with_path()
                                     : AttributeMask::all_with_fileid();
  return cfg;
}

/// Persistence knobs sized for tests: frequent checkpoints, small commit
/// groups, real fsync (the crash tests depend on it).
MinerOptions persist_opts(const std::string& dir) {
  MinerOptions opts;
  opts.persist_dir = dir;
  opts.checkpoint_interval_records = 400;
  opts.wal_group_commit = 32;
  return opts;
}

class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(::testing::TempDir() + name) {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::string read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string out;
  char buf[1 << 14];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;)
    out.append(buf, n);
  std::fclose(f);
  return out;
}

/// Committed CHECKPOINT.<seq> files under `dir`, keyed by seq.
std::vector<std::pair<std::uint64_t, std::string>> committed_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  for (const auto& e : fs::directory_iterator(dir)) {
    const std::string name = e.path().filename().string();
    if (name.rfind("CHECKPOINT.", 0) == 0 &&
        name.find(".tmp") == std::string::npos)
      out.emplace_back(std::stoull(name.substr(11)), e.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Byte-identical equivalence over the full query surface: access counts
/// and Correlator Lists for every file (bitwise float compare), pairwise
/// queries on a stride of pairs, and the ingested-request counter.
void expect_identical(const CorrelationMiner& got,
                      const CorrelationMiner& want) {
  ASSERT_EQ(got.stats().requests, want.stats().requests);
  const auto files =
      static_cast<std::uint32_t>(trace().dict->files.size());
  for (std::uint32_t f = 0; f < files; ++f) {
    const FileId id(f);
    ASSERT_EQ(got.access_count(id), want.access_count(id)) << "file " << f;
    const CorrelatorView g = got.snapshot(id);
    const CorrelatorView w = want.snapshot(id);
    ASSERT_EQ(g.size(), w.size()) << "file " << f;
    for (std::size_t i = 0; i < g.size(); ++i) {
      EXPECT_EQ(g[i].file.value(), w[i].file.value())
          << "file " << f << " entry " << i;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(g[i].degree),
                std::bit_cast<std::uint32_t>(w[i].degree))
          << "file " << f << " entry " << i;
    }
  }
  for (std::uint32_t a = 0; a < files; a += 17) {
    for (std::uint32_t b = 0; b < files; b += 29) {
      const FileId fa(a), fb(b);
      EXPECT_EQ(got.correlation_degree(fa, fb),
                want.correlation_degree(fa, fb));
      EXPECT_EQ(got.semantic_similarity(fa, fb),
                want.semantic_similarity(fa, fb));
      EXPECT_EQ(got.access_frequency(fa, fb), want.access_frequency(fa, fb));
    }
  }
}

std::unique_ptr<CorrelationMiner> reference_miner(
    const char* backend, std::span<const TraceRecord> records) {
  auto miner = make_miner(backend, test_cfg(), trace().dict);
  miner->observe_batch(records);
  miner->flush();
  return miner;
}

// ------------------------------------------------------ save()/load() ----

TEST(PersistSaveLoad, FarmerRoundTrip) {
  TempDir dir("persist_farmer_rt");
  const auto source = reference_miner("farmer", trace().records);
  source->save(dir.str());
  auto loaded = make_miner("farmer", test_cfg(), trace().dict);
  loaded->load(dir.str());
  expect_identical(*loaded, *source);
}

TEST(PersistSaveLoad, ShardedRoundTrip) {
  TempDir dir("persist_sharded_rt");
  const auto source = reference_miner("sharded", trace().records);
  source->save(dir.str());
  auto loaded = make_miner("sharded", test_cfg(), trace().dict);
  loaded->load(dir.str());
  expect_identical(*loaded, *source);
}

TEST(PersistSaveLoad, ConcurrentRoundTrip) {
  TempDir dir("persist_concurrent_rt");
  auto source = reference_miner("concurrent", trace().records);
  source->save(dir.str());
  auto loaded = make_miner("concurrent", test_cfg(), trace().dict);
  loaded->load(dir.str());
  expect_identical(*loaded, *source);
  // The loaded miner keeps mining: further ingest lands on top of the
  // loaded model exactly as it would have on the original.
  loaded->observe_batch(std::span<const TraceRecord>(trace().records.data(),
                                                     64));
  loaded->flush();
  source->observe_batch(std::span<const TraceRecord>(trace().records.data(),
                                                     64));
  source->flush();
  expect_identical(*loaded, *source);
}

TEST(PersistSaveLoad, ShardedCheckpointLoadsIntoConcurrent) {
  // Same shard count + the deterministic shard_of routing make a "sharded"
  // checkpoint directly loadable by "concurrent" (and vice versa).
  TempDir dir("persist_cross_backend");
  const auto source = reference_miner("sharded", trace().records);
  source->save(dir.str());
  auto loaded = make_miner("concurrent", test_cfg(), trace().dict);
  loaded->load(dir.str());
  expect_identical(*loaded, *source);
}

TEST(PersistSaveLoad, LoadRequiresFreshMiner) {
  TempDir dir("persist_fresh_only");
  const auto source = reference_miner("farmer", trace().records);
  source->save(dir.str());
  auto dirty = make_miner("farmer", test_cfg(), trace().dict);
  dirty->observe(trace().records.front());
  EXPECT_THROW(dirty->load(dir.str()), std::logic_error);
  auto dirty_conc = make_miner("concurrent", test_cfg(), trace().dict);
  dirty_conc->observe(trace().records.front());
  dirty_conc->flush();
  EXPECT_THROW(dirty_conc->load(dir.str()), std::logic_error);
}

// Regression: checkpoints embed the dictionary with the shared v3 codec.
// The legacy v2 codec stored path-component counts in a uint8_t, so a path
// deeper than 255 components silently truncated on save and the reloaded
// miner was bound to a different dictionary than the one it was mined
// under. A >255-component path must round-trip through save()/load().
TEST(PersistSaveLoad, DeepPathDictionaryRoundTrips) {
  TempDir dir("persist_deep_path_rt");
  auto dict = std::make_shared<TraceDictionary>();
  SmallVector<TokenId, 8> comps;
  for (int i = 0; i < 300; ++i)
    comps.push_back(dict->tokens.intern("d" + std::to_string(i)));
  const PathId deep = dict->add_path(std::move(comps));
  for (std::uint32_t f = 0; f < 4; ++f) {
    FileMeta m;
    m.path = f == 0 ? deep : dict->add_path({dict->tokens.intern(
                                 "f" + std::to_string(f))});
    m.dev = dict->tokens.intern("dev0");
    m.fid = dict->tokens.intern("fid" + std::to_string(f));
    dict->files.push_back(m);
  }
  std::vector<TraceRecord> records;
  for (std::uint32_t i = 0; i < 64; ++i) {
    TraceRecord r;
    r.timestamp = i * 1000;
    r.file = FileId(i % 4);
    r.path = dict->files[i % 4].path;
    r.dev_token = dict->files[i % 4].dev;
    r.fid_token = dict->files[i % 4].fid;
    records.push_back(r);
  }
  FarmerConfig cfg;
  cfg.attributes = AttributeMask::all_with_path();

  auto source = make_miner("farmer", cfg, dict);
  source->observe_batch(records);
  source->flush();
  source->save(dir.str());

  auto loaded = make_miner("farmer", cfg, dict);
  loaded->load(dir.str());
  ASSERT_EQ(loaded->stats().requests, source->stats().requests);
  for (std::uint32_t f = 0; f < 4; ++f) {
    const FileId id(f);
    EXPECT_EQ(loaded->access_count(id), source->access_count(id));
    EXPECT_EQ(loaded->correlation_degree(id, FileId((f + 1) % 4)),
              source->correlation_degree(id, FileId((f + 1) % 4)));
  }
}

// ------------------------------------------- factory-level persistence ----

TEST(PersistReopen, ShardedRecoversAcrossProcessLifetime) {
  TempDir dir("persist_reopen_sharded");
  {
    auto miner =
        make_miner("sharded", test_cfg(), trace().dict,
                   persist_opts(dir.str()));
    EXPECT_STREQ(miner->name(), "sharded");  // decoration keeps the name
    miner->observe_batch(trace().records);
  }  // destructor syncs the WAL tail
  auto recovered = make_miner("sharded", test_cfg(), trace().dict,
                              persist_opts(dir.str()));
  const auto reference = reference_miner("sharded", trace().records);
  expect_identical(*recovered, *reference);
}

TEST(PersistReopen, ConcurrentRecoversAcrossProcessLifetime) {
  TempDir dir("persist_reopen_concurrent");
  {
    auto miner = make_miner("concurrent", test_cfg(), trace().dict,
                            persist_opts(dir.str()));
    miner->observe_batch(trace().records);
    miner->flush();
  }
  auto recovered = make_miner("concurrent", test_cfg(), trace().dict,
                              persist_opts(dir.str()));
  const auto reference = reference_miner("concurrent", trace().records);
  expect_identical(*recovered, *reference);
  // Recovered state accepts further ingest seamlessly.
  recovered->observe_batch(
      std::span<const TraceRecord>(trace().records.data(), 128));
  recovered->flush();
}

TEST(PersistReopen, CorruptNewestCheckpointFallsBackToOlder) {
  TempDir dir("persist_corrupt_ckpt");
  {
    auto miner = make_miner("sharded", test_cfg(), trace().dict,
                            persist_opts(dir.str()));
    // Chunked ingest: checkpoints are initiated on batch boundaries, so one
    // giant batch would commit only a single checkpoint.
    const auto& records = trace().records;
    for (std::size_t i = 0; i < records.size(); i += 200)
      miner->observe_batch(std::span<const TraceRecord>(
          records.data() + i, std::min<std::size_t>(200, records.size() - i)));
  }
  // The trace is large enough for several checkpoint intervals, and the
  // pruner keeps the two newest checkpoints.
  const auto checkpoints = committed_checkpoints(dir.str());
  ASSERT_GE(checkpoints.size(), 2u);
  // Flip one byte in the middle of the newest checkpoint: its checksum
  // fails, recovery falls back to the older one and replays the longer WAL
  // tail — ending at exactly the same durable state.
  {
    const std::string& victim = checkpoints.back().second;
    const auto size = fs::file_size(victim);
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(size / 2), SEEK_SET), 0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, static_cast<long>(size / 2), SEEK_SET), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);
  }
  auto recovered = make_miner("sharded", test_cfg(), trace().dict,
                              persist_opts(dir.str()));
  const auto reference = reference_miner("sharded", trace().records);
  expect_identical(*recovered, *reference);
}

TEST(PersistReopen, ConfigMismatchThrows) {
  TempDir dir("persist_cfg_mismatch");
  {
    auto miner = make_miner("farmer", test_cfg(), trace().dict,
                            persist_opts(dir.str()));
    miner->observe_batch(trace().records);
  }
  FarmerConfig other = test_cfg();
  other.p = other.p / 2.0;
  EXPECT_THROW(
      make_miner("farmer", other, trace().dict, persist_opts(dir.str())),
      std::runtime_error);
}

// Regression: the atomic checkpoint write ignored fflush/fsync/fclose
// failures and renamed the tmp over the checkpoint anyway. With the tmp
// pointed at a device that rejects every write (the buffered bytes only
// fail at flush), the write must throw and leave no checkpoint behind.
TEST(PersistCheckpoint, FailedFlushThrowsAndLeavesNoCheckpoint) {
  ASSERT_TRUE(fs::exists("/dev/full")) << "test needs /dev/full";
  TempDir dir("persist_dev_full");
  fs::create_directories(dir.str());
  const std::string path = dir.str() + "/CHECKPOINT.1";
  fs::create_symlink("/dev/full", path + ".tmp");
  const std::vector<std::string> blobs = {"shard"};
  EXPECT_THROW(persist::write_checkpoint_file(path, 1, test_cfg(), "",
                                              blobs),
               std::runtime_error);
  EXPECT_FALSE(fs::exists(fs::symlink_status(path))) << "checkpoint appeared";
  EXPECT_FALSE(fs::exists(fs::symlink_status(path + ".tmp")))
      << "tmp not removed";
}

TEST(PersistReopen, WalOnlyDirIsBoundToItsDictionary) {
  // Regression: a directory killed before its first checkpoint holds only
  // WAL segments, which carry no config/dictionary binding of their own.
  // The MANIFEST written at first open must reject a reopen under a
  // different trace or config instead of replaying foreign records into a
  // mismatched model.
  TempDir dir("persist_wal_only_binding");
  {
    auto miner = make_miner("farmer", test_cfg(), trace().dict,
                            persist_opts(dir.str()));
    // Fewer records than the 400-record checkpoint interval: WAL only.
    miner->observe_batch(
        std::span<const TraceRecord>(trace().records.data(), 100));
  }
  EXPECT_TRUE(fs::exists(dir.str() + "/MANIFEST"));
  for (const auto& e : fs::directory_iterator(dir.str()))
    ASSERT_EQ(e.path().filename().string().rfind("CHECKPOINT.", 0),
              std::string::npos)
        << "test premise broken: a checkpoint was committed";

  const Trace other = make_paper_trace(TraceKind::kINS, 11, 0.02);
  EXPECT_THROW(
      make_miner("farmer", test_cfg(), other.dict, persist_opts(dir.str())),
      std::runtime_error);
  FarmerConfig other_cfg = test_cfg();
  other_cfg.p = other_cfg.p / 2.0;
  EXPECT_THROW(
      make_miner("farmer", other_cfg, trace().dict, persist_opts(dir.str())),
      std::runtime_error);

  // The matching config + dictionary still recovers cleanly.
  auto recovered = make_miner("farmer", test_cfg(), trace().dict,
                              persist_opts(dir.str()));
  const auto reference = reference_miner(
      "farmer", std::span<const TraceRecord>(trace().records.data(), 100));
  expect_identical(*recovered, *reference);
}

// --------------------------------------------- format byte identity ----
//
// The checkpoint writer streams the file and serialize_shard makes one pass
// over a shard. Both must produce exactly the bytes of the implementations
// they replaced, which stay here as references: the format and
// kCheckpointVersion did not change, so a file written now must equal one
// written before, byte for byte.

template <typename T>
void put_ref(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// The one-shot mix64 chain over a whole assembled body.
std::uint64_t reference_checksum(std::string_view bytes) {
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  const char* p = bytes.data();
  std::size_t n = bytes.size();
  while (n >= sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    h = mix64(h ^ word);
    p += sizeof word;
    n -= sizeof word;
  }
  std::uint64_t tail = 0;
  if (n > 0) std::memcpy(&tail, p, n);
  return mix64(h ^ tail ^ bytes.size());
}

/// The concatenate-then-write assembler: the whole body in memory (the
/// dictionary encoded afresh), then magic, version, length, body, checksum.
std::string reference_checkpoint_bytes(std::uint64_t seq,
                                       const FarmerConfig& cfg,
                                       const TraceDictionary* dict,
                                       const std::vector<std::string>& blobs) {
  std::string body;
  put_ref<std::uint64_t>(body, seq);
  put_ref<std::uint64_t>(body, persist::config_hash(cfg));
  std::string dict_bytes;
  if (dict != nullptr) encode_dictionary(dict_bytes, *dict);
  put_ref<std::uint64_t>(body, dict_bytes.size());
  body += dict_bytes;
  put_ref<std::uint32_t>(body, static_cast<std::uint32_t>(blobs.size()));
  for (const std::string& blob : blobs) {
    put_ref<std::uint64_t>(body, blob.size());
    body += blob;
  }
  std::string file;
  put_ref<std::uint32_t>(file, persist::kCheckpointMagic);
  put_ref<std::uint32_t>(file, persist::kCheckpointVersion);
  put_ref<std::uint64_t>(file, body.size());
  file += body;
  put_ref<std::uint64_t>(file, reference_checksum(body));
  return file;
}

/// The two-pass serializer: separate counting walks over the semantic
/// state and the graph nodes before the writing walks.
std::string reference_serialize_shard(const Farmer& shard) {
  std::string out;
  put_ref<std::uint64_t>(out, shard.request_count());
  const CoMinerStats& ms = shard.miner_stats();
  put_ref<std::uint64_t>(out, ms.pairs_evaluated);
  put_ref<std::uint64_t>(out, ms.pairs_accepted);
  put_ref<std::uint64_t>(out, ms.pairs_filtered);
  const AccessWindow& w = shard.access_window();
  put_ref<std::uint32_t>(out, static_cast<std::uint32_t>(w.size()));
  for (std::size_t i = w.size(); i-- > 0;)
    put_ref<std::uint32_t>(out, w.at(i).value());
  put_ref<std::uint64_t>(out, shard.state_size());
  std::uint64_t populated = 0;
  shard.for_each_file_state(
      [&](FileId, const SemanticVector&, const Signature&) { ++populated; });
  put_ref<std::uint64_t>(out, populated);
  shard.for_each_file_state([&](FileId f, const SemanticVector& vec,
                                const Signature& sig) {
    put_ref<std::uint32_t>(out, f.value());
    put_ref<std::uint32_t>(out, vec.user.value());
    put_ref<std::uint32_t>(out, vec.process.value());
    put_ref<std::uint32_t>(out, vec.host.value());
    put_ref<std::uint32_t>(out, vec.dev.value());
    put_ref<std::uint32_t>(out, vec.fid.value());
    put_ref<std::uint32_t>(
        out, static_cast<std::uint32_t>(vec.path_components.size()));
    for (TokenId t : vec.path_components) put_ref<std::uint32_t>(out, t.value());
    put_ref<std::uint32_t>(out, static_cast<std::uint32_t>(sig.items.size()));
    for (TokenId t : sig.items) put_ref<std::uint32_t>(out, t.value());
    put_ref<std::uint32_t>(out,
                           static_cast<std::uint32_t>(sig.path_sorted.size()));
    for (TokenId t : sig.path_sorted) put_ref<std::uint32_t>(out, t.value());
    put_ref<std::uint8_t>(out, sig.ipa_path ? 1 : 0);
  });
  const CorrelationGraph& g = shard.graph();
  put_ref<std::uint64_t>(out, g.node_count());
  std::uint64_t nodes = 0;
  for (std::size_t i = 0; i < g.node_count(); ++i)
    if (g.has_node(FileId(static_cast<std::uint32_t>(i)))) ++nodes;
  put_ref<std::uint64_t>(out, nodes);
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const FileId f(static_cast<std::uint32_t>(i));
    if (!g.has_node(f)) continue;
    put_ref<std::uint32_t>(out, f.value());
    put_ref<std::uint64_t>(out, g.access_count(f));
    const auto& succs = g.successors(f);
    put_ref<std::uint32_t>(out, static_cast<std::uint32_t>(succs.size()));
    for (const SuccessorEdge& e : succs) {
      put_ref<std::uint32_t>(out, e.successor.value());
      put_ref<float>(out, e.nab);
    }
    const auto& corr = g.correlators(f);
    put_ref<std::uint32_t>(out, static_cast<std::uint32_t>(corr.size()));
    for (const Correlator& c : corr) {
      put_ref<std::uint32_t>(out, c.file.value());
      put_ref<float>(out, c.degree);
    }
  }
  return out;
}

TEST(PersistCheckpointFormat, StreamedFileMatchesAssembledReference) {
  TempDir dir("persist_format_streamed");
  fs::create_directories(dir.str());
  Rng rng(1313);
  for (int trial = 0; trial < 24; ++trial) {
    // Zero to five blobs of awkward lengths (mostly not multiples of 8, so
    // the streamed checksum's partial words straddle every piece), with
    // and without an embedded dictionary.
    const std::size_t nblobs = static_cast<std::size_t>(trial % 6);
    std::vector<std::string> blobs(nblobs);
    for (std::string& blob : blobs) {
      blob.resize(rng.next_below(trial % 3 == 0 ? 24 : 700));
      for (char& c : blob) c = static_cast<char>(rng.next_below(256));
    }
    const TraceDictionary* dict = trial % 2 == 0 ? trace().dict.get() : nullptr;
    const std::uint64_t seq = rng.next_below(1u << 20);
    const std::string path =
        dir.str() + "/CHECKPOINT." + std::to_string(seq);
    persist::write_checkpoint_file(path, seq, test_cfg(),
                                   persist::dictionary_bytes(dict), blobs);
    ASSERT_EQ(read_file_bytes(path),
              reference_checkpoint_bytes(seq, test_cfg(), dict, blobs))
        << "trial " << trial << ": " << nblobs << " blobs, "
        << (dict != nullptr ? "with" : "without") << " dictionary";
    EXPECT_FALSE(fs::exists(path + ".tmp"));
    const auto loaded = persist::read_checkpoint_file(
        path, test_cfg(), persist::dictionary_bytes(dict));
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->seq, seq);
    EXPECT_EQ(loaded->shard_blobs, blobs);
    fs::remove(path);
  }
}

TEST(PersistCheckpointFormat, OnePassSerializeMatchesTwoPassReference) {
  ShardedFarmer sharded(test_cfg(), trace().dict, /*shards=*/4,
                        /*apply_threads=*/1);
  ASSERT_GE(trace().records.size(), 3u);
  const auto check_every_shard = [&](const char* when) {
    for (std::size_t s = 0; s < sharded.shard_count(); ++s)
      ASSERT_EQ(persist::serialize_shard(sharded.shard(s)),
                reference_serialize_shard(sharded.shard(s)))
          << when << ", shard " << s;
  };
  check_every_shard("empty");
  const auto& records = trace().records;
  const std::size_t third = records.size() / 3;
  sharded.observe_batch(std::span<const TraceRecord>(records.data(), third));
  check_every_shard("after a third of the trace");
  sharded.observe_batch(std::span<const TraceRecord>(
      records.data() + third, records.size() - third));
  check_every_shard("after the whole trace");
}

// End to end: every CHECKPOINT.<seq> the background writer leaves behind
// equals the file the previous inline path would have written for the same
// seq — reference blobs of a replay of the first seq records, assembled in
// memory.
TEST(PersistCheckpointFormat, DurableCheckpointsMatchInlineReference) {
  TempDir dir("persist_format_durable");
  const auto& records = trace().records;
  {
    auto miner = make_miner("sharded", test_cfg(), trace().dict,
                            persist_opts(dir.str()));
    for (std::size_t i = 0; i < records.size(); i += 200)
      miner->observe_batch(std::span<const TraceRecord>(
          records.data() + i, std::min<std::size_t>(200, records.size() - i)));
  }
  const auto checkpoints = committed_checkpoints(dir.str());
  ASSERT_EQ(checkpoints.size(), 2u);
  for (const auto& [seq, path] : checkpoints) {
    ASSERT_EQ(seq % 400, 0u) << "checkpoint cadence moved: " << path;
    ShardedFarmer ref(test_cfg(), trace().dict, MinerOptions{}.shards, 1);
    ref.observe_batch(std::span<const TraceRecord>(records.data(), seq));
    std::vector<std::string> blobs;
    for (std::size_t s = 0; s < ref.shard_count(); ++s)
      blobs.push_back(reference_serialize_shard(ref.shard(s)));
    EXPECT_EQ(read_file_bytes(path),
              reference_checkpoint_bytes(seq, test_cfg(), trace().dict.get(),
                                         blobs))
        << path;
  }
}

// ------------------------------------------------- failure semantics ----

// A checkpoint write that fails on the background writer is latched, not
// lost and not fatal: the tmp the writer opens is a symlink to a device
// that rejects every write, so CHECKPOINT.400 can never be published. A
// later call must throw, no CHECKPOINT.400 may appear, and — because prune
// only follows a successful write and the WAL keeps everything — reopening
// the directory recovers every record the miner accepted.
TEST(PersistFailure, BackgroundCheckpointFailureIsLatchedAndLosesNothing) {
  ASSERT_TRUE(fs::exists("/dev/full")) << "test needs /dev/full";
  TempDir dir("persist_failure_latch");
  const MinerOptions opts = persist_opts(dir.str());
  fs::create_directories(dir.str());
  const std::string ckpt = dir.str() + "/CHECKPOINT." +
                           std::to_string(opts.checkpoint_interval_records);
  fs::create_symlink("/dev/full", ckpt + ".tmp");

  const auto& records = trace().records;
  ASSERT_GT(records.size(), 2 * opts.checkpoint_interval_records);
  std::size_t accepted = 0;
  bool threw = false;
  {
    auto miner = make_miner("sharded", test_cfg(), trace().dict, opts);
    // Past the interval: the cut at 400 hands the write to the writer.
    for (; accepted < opts.checkpoint_interval_records + 100 && !threw;) {
      const std::size_t n = 50;
      try {
        miner->observe_batch(
            std::span<const TraceRecord>(records.data() + accepted, n));
        accepted += n;
      } catch (const std::runtime_error&) {
        threw = true;  // the latch surfaced early; the batch was not taken
      }
    }
    if (!threw) {
      // flush() waits for the in-flight write, so the failure surfaces.
      EXPECT_THROW(miner->flush(), std::runtime_error);
    }
    // The error is sticky: every later ingest call refuses too.
    EXPECT_THROW(miner->observe(records[accepted]), std::runtime_error);
    EXPECT_THROW(miner->observe_batch(std::span<const TraceRecord>(
                     records.data() + accepted, 8)),
                 std::runtime_error);
    EXPECT_THROW(miner->flush(), std::runtime_error);
  }  // the destructor swallows the latched error
  EXPECT_GE(accepted, opts.checkpoint_interval_records);
  EXPECT_FALSE(fs::exists(fs::symlink_status(ckpt))) << "checkpoint appeared";
  EXPECT_TRUE(committed_checkpoints(dir.str()).empty());

  auto recovered = make_miner("sharded", test_cfg(), trace().dict, opts);
  const auto reference = reference_miner(
      "sharded", std::span<const TraceRecord>(records.data(), accepted));
  expect_identical(*recovered, *reference);
}

// --------------------------------------------------- kill-and-recover ----

/// Forks a child that ingests the trace on repeat (single producer, so WAL
/// order is trace order) into `backend` with persistence in `dir`, until
/// the parent SIGKILLs it mid-WAL-append.
pid_t spawn_ingest_child(const char* backend, const std::string& dir,
                         MinerOptions opts) {
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  opts.persist_dir = dir;
  {
    auto miner = make_miner(backend, test_cfg(), trace().dict, opts);
    const auto& records = trace().records;
    for (;;)
      for (const TraceRecord& r : records) miner->observe(r);
  }
  ::_exit(3);  // unreachable
}

/// Waits until a committed (non-.tmp) checkpoint exists under `dir`, lets a
/// little more WAL accumulate, then SIGKILLs and reaps the child.
void kill_after_first_checkpoint(pid_t child, const std::string& dir) {
  bool saw_checkpoint = false;
  for (int i = 0; i < 30000 && !saw_checkpoint; ++i) {
    std::error_code ec;
    for (fs::directory_iterator it(dir, ec), end; !ec && it != end; ++it) {
      const std::string name = it->path().filename().string();
      if (name.rfind("CHECKPOINT.", 0) == 0 &&
          name.find(".tmp") == std::string::npos)
        saw_checkpoint = true;
    }
    if (!saw_checkpoint)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(saw_checkpoint) << "child never committed a checkpoint";
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

/// The shared sharded/concurrent crash differential: kill mid-append, read
/// the durable record count, replay exactly that prefix of the (repeated)
/// trace into a fresh reference miner, and demand byte-identical queries
/// from the recovered miner.
void run_kill_and_recover(const char* backend,
                          const MinerOptions& opts = persist_opts(""),
                          const std::string& dir_tag = "") {
  (void)trace();  // build the trace before forking
  TempDir dir(std::string("persist_kill_") + backend + dir_tag);
  const pid_t child = spawn_ingest_child(backend, dir.str(), opts);
  ASSERT_GT(child, 0);
  kill_after_first_checkpoint(child, dir.str());

  const persist::Recovery rec =
      persist::recover_dir(dir.str(), test_cfg(), trace().dict.get());
  const std::uint64_t durable = rec.durable_records();
  ASSERT_GT(durable, 0u);

  const auto& records = trace().records;
  std::vector<TraceRecord> prefix;
  prefix.reserve(durable);
  for (std::uint64_t i = 0; i < durable; ++i)
    prefix.push_back(records[i % records.size()]);
  const auto reference = reference_miner(backend, prefix);

  MinerOptions recover_opts = opts;
  recover_opts.persist_dir = dir.str();
  auto recovered = make_miner(backend, test_cfg(), trace().dict, recover_opts);
  expect_identical(*recovered, *reference);
}

TEST(PersistKillAndRecover, Sharded) { run_kill_and_recover("sharded"); }

// A checkpoint every 512 records keeps the background writer busy almost
// all the time, so the SIGKILL usually lands mid-write: a torn
// CHECKPOINT.<seq>.tmp must never shadow the WAL tail.
TEST(PersistKillAndRecover, ShardedFrequentBackgroundCheckpoints) {
  MinerOptions opts = persist_opts("");
  opts.checkpoint_interval_records = 512;
  run_kill_and_recover("sharded", opts, "_frequent");
}

TEST(PersistKillAndRecover, Concurrent) {
  run_kill_and_recover("concurrent");
}

}  // namespace
}  // namespace farmer
