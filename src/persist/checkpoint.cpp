#include "persist/checkpoint.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/hash.hpp"
#include "core/farmer.hpp"
#include "trace/trace_io.hpp"

namespace farmer::persist {

namespace {

template <typename T>
void put_raw(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Overwrites the placeholder put_raw wrote at byte offset `at`.
template <typename T>
void patch_raw(std::string& out, std::size_t at, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(out.data() + at, &v, sizeof v);
}

/// Bounds-checked forward reader over a serialized blob; any overrun means
/// the blob is torn or malformed, which surfaces as std::runtime_error.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes)
      : p_(bytes.data()), end_(bytes.data() + bytes.size()) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (static_cast<std::size_t>(end_ - p_) < sizeof(T))
      throw std::runtime_error("checkpoint blob truncated");
    T v;
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
    return v;
  }

  /// The next `len` bytes, as a view into the underlying buffer.
  std::string_view take(std::size_t len) {
    if (static_cast<std::size_t>(end_ - p_) < len)
      throw std::runtime_error("checkpoint blob truncated");
    const std::string_view out(p_, len);
    p_ += len;
    return out;
  }

  [[nodiscard]] bool done() const noexcept { return p_ == end_; }

 private:
  const char* p_;
  const char* end_;
};

/// mix64 chain over a byte stream fed in arbitrary pieces: whole 8-byte
/// words fold in as they complete, and finish() folds the zero-padded tail
/// word and the total length — the same value as one pass over the
/// concatenated bytes, so a streamed file checksums exactly like an
/// assembled one.
class Checksum {
 public:
  void update(std::string_view bytes) {
    if (bytes.empty()) return;  // data() may be null
    const char* p = bytes.data();
    std::size_t n = bytes.size();
    len_ += n;
    if (pending_len_ > 0) {
      const std::size_t take = std::min(n, sizeof pending_ - pending_len_);
      std::memcpy(pending_ + pending_len_, p, take);
      pending_len_ += take;
      p += take;
      n -= take;
      if (pending_len_ < sizeof pending_) return;
      fold(pending_);
      pending_len_ = 0;
    }
    for (; n >= sizeof pending_; p += sizeof pending_, n -= sizeof pending_)
      fold(p);
    std::memcpy(pending_, p, n);
    pending_len_ = n;
  }

  [[nodiscard]] std::uint64_t finish() const {
    std::uint64_t tail = 0;
    std::memcpy(&tail, pending_, pending_len_);
    return mix64(h_ ^ tail ^ len_);
  }

 private:
  void fold(const char* p) {
    std::uint64_t word;
    std::memcpy(&word, p, sizeof word);
    h_ = mix64(h_ ^ word);
  }

  std::uint64_t h_ = 0x9E3779B97F4A7C15ull;
  std::uint64_t len_ = 0;
  char pending_[sizeof(std::uint64_t)] = {};
  std::size_t pending_len_ = 0;
};

std::uint64_t checksum_bytes(std::string_view bytes) {
  Checksum c;
  c.update(bytes);
  return c.finish();
}

/// fsync the directory containing `path` so a rename inside it is durable.
void fsync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0)
    throw std::runtime_error("checkpoint: cannot open directory " + dir);
  // EINVAL: the filesystem cannot sync directories — nothing to wait for.
  const bool synced = ::fsync(fd) == 0 || errno == EINVAL;
  ::close(fd);
  if (!synced)
    throw std::runtime_error("checkpoint: directory fsync failed for " + dir);
#else
  (void)path;
#endif
}

/// One atomically published `[magic][version][u64 body_len][body]
/// [u64 checksum]` file — the framing behind checkpoints and the manifest.
/// The body streams into `path + ".tmp"` through put() in as many pieces
/// as the caller likes (body_len is declared up front); commit() appends
/// the checksum, flushes, fsyncs, closes and renames the tmp over `path`,
/// then fsyncs the parent directory. Destroying an uncommitted file closes
/// and removes the tmp, so a failed write never leaves a stale spare.
class FramedFile {
 public:
  FramedFile(std::string path, std::uint32_t magic, std::uint32_t version,
             std::uint64_t body_len)
      : path_(std::move(path)), tmp_(path_ + ".tmp"), body_len_(body_len) {
    f_ = std::fopen(tmp_.c_str(), "wb");
    if (f_ == nullptr)
      throw std::runtime_error("checkpoint: cannot open " + tmp_);
    try {
      write(&magic, sizeof magic);
      write(&version, sizeof version);
      write(&body_len, sizeof body_len);
    } catch (...) {
      std::fclose(f_);  // no destructor runs for a throwing constructor
      std::remove(tmp_.c_str());
      throw;
    }
  }

  ~FramedFile() {
    if (f_ != nullptr) std::fclose(f_);
    if (!committed_) std::remove(tmp_.c_str());
  }

  FramedFile(const FramedFile&) = delete;
  FramedFile& operator=(const FramedFile&) = delete;

  /// Appends body bytes (checksummed).
  void put(std::string_view bytes) {
    csum_.update(bytes);
    written_ += bytes.size();
    write(bytes.data(), bytes.size());
  }

  template <typename T>
  void put_value(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    put(std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
  }

  void commit() {
    if (written_ != body_len_)
      throw std::logic_error("checkpoint: body length mismatch for " + tmp_);
    const std::uint64_t csum = csum_.finish();
    write(&csum, sizeof csum);
    // A failed flush, fsync or close means the tmp may not hold the bytes:
    // renaming it over the checkpoint would replace good state with a torn
    // file. Each step runs regardless, so the FILE is always closed.
    bool durable = std::fflush(f_) == 0;
#if defined(__unix__) || defined(__APPLE__)
    durable = ::fsync(::fileno(f_)) == 0 && durable;
#endif
    durable = std::fclose(f_) == 0 && durable;
    f_ = nullptr;
    if (!durable)
      throw std::runtime_error("checkpoint: flush/fsync/close failed for " +
                               tmp_);
    if (std::rename(tmp_.c_str(), path_.c_str()) != 0)
      throw std::runtime_error("checkpoint: rename failed for " + path_);
    committed_ = true;
    fsync_parent_dir(path_);
  }

 private:
  void write(const void* data, std::size_t len) {
    if (len > 0 && std::fwrite(data, 1, len, f_) != len)
      throw std::runtime_error("checkpoint: short write to " + tmp_);
  }

  std::string path_;
  std::string tmp_;
  std::FILE* f_ = nullptr;
  std::uint64_t body_len_;
  std::uint64_t written_ = 0;
  Checksum csum_;
  bool committed_ = false;
};

/// Reads a file written through FramedFile. Returns std::nullopt when
/// the file is absent, torn, truncated, or fails its checksum.
std::optional<std::string> read_framed(const std::string& path,
                                       std::uint32_t want_magic,
                                       std::uint32_t want_version) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  const auto read_or = [f](void* dst, std::size_t len) {
    return std::fread(dst, 1, len, f) == len;
  };
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::uint32_t magic = 0, version = 0;
  std::uint64_t body_len = 0;
  if (!read_or(&magic, sizeof magic) || magic != want_magic ||
      !read_or(&version, sizeof version) || version != want_version ||
      !read_or(&body_len, sizeof body_len) || file_size < 0 ||
      body_len > static_cast<std::uint64_t>(file_size)) {
    std::fclose(f);
    return std::nullopt;
  }
  std::string body(body_len, '\0');
  std::uint64_t stored_csum = 0;
  if (!read_or(body.data(), body.size()) ||
      !read_or(&stored_csum, sizeof stored_csum)) {
    std::fclose(f);
    return std::nullopt;
  }
  std::fclose(f);
  if (checksum_bytes(body) != stored_csum) return std::nullopt;
  return body;
}

}  // namespace

std::uint64_t config_hash(const FarmerConfig& cfg) {
  std::uint64_t h = kCheckpointMagic;
  const auto fold = [&h](std::uint64_t v) { h = mix64(h ^ v); };
  std::uint64_t bits;
  std::memcpy(&bits, &cfg.p, sizeof bits);
  fold(bits);
  std::memcpy(&bits, &cfg.max_strength, sizeof bits);
  fold(bits);
  fold(cfg.window);
  std::memcpy(&bits, &cfg.lda_delta, sizeof bits);
  fold(bits);
  fold(cfg.attributes.bits());
  fold(static_cast<std::uint64_t>(cfg.path_mode));
  fold(cfg.max_successors);
  fold(cfg.correlator_capacity);
  return h;
}

std::string serialize_shard(const Farmer& shard) {
  std::string out;

  put_raw<std::uint64_t>(out, shard.request_count());
  const CoMinerStats& ms = shard.miner_stats();
  put_raw<std::uint64_t>(out, ms.pairs_evaluated);
  put_raw<std::uint64_t>(out, ms.pairs_accepted);
  put_raw<std::uint64_t>(out, ms.pairs_filtered);

  // Access window, oldest -> newest (push order on restore).
  const AccessWindow& w = shard.access_window();
  put_raw<std::uint32_t>(out, static_cast<std::uint32_t>(w.size()));
  for (std::size_t i = w.size(); i-- > 0;)
    put_raw<std::uint32_t>(out, w.at(i).value());

  // Per-file semantic state: logical index size, then populated entries.
  put_raw<std::uint64_t>(out, shard.state_size());
  const std::size_t populated_at = out.size();
  put_raw<std::uint64_t>(out, 0);  // populated count, patched below
  std::uint64_t populated = 0;
  shard.for_each_file_state([&](FileId f, const SemanticVector& vec,
                                const Signature& sig) {
    ++populated;
    put_raw<std::uint32_t>(out, f.value());
    put_raw<std::uint32_t>(out, vec.user.value());
    put_raw<std::uint32_t>(out, vec.process.value());
    put_raw<std::uint32_t>(out, vec.host.value());
    put_raw<std::uint32_t>(out, vec.dev.value());
    put_raw<std::uint32_t>(out, vec.fid.value());
    put_raw<std::uint32_t>(out, static_cast<std::uint32_t>(
                                    vec.path_components.size()));
    for (TokenId t : vec.path_components)
      put_raw<std::uint32_t>(out, t.value());
    put_raw<std::uint32_t>(out, static_cast<std::uint32_t>(sig.items.size()));
    for (TokenId t : sig.items) put_raw<std::uint32_t>(out, t.value());
    put_raw<std::uint32_t>(out,
                           static_cast<std::uint32_t>(sig.path_sorted.size()));
    for (TokenId t : sig.path_sorted) put_raw<std::uint32_t>(out, t.value());
    put_raw<std::uint8_t>(out, sig.ipa_path ? 1 : 0);
  });
  patch_raw<std::uint64_t>(out, populated_at, populated);

  // Correlation graph: logical node-index size, then populated nodes with
  // successor edges and Correlator Lists in stored order (edge order decides
  // eviction ties; list order is the query output).
  const CorrelationGraph& g = shard.graph();
  put_raw<std::uint64_t>(out, g.node_count());
  const std::size_t nodes_at = out.size();
  put_raw<std::uint64_t>(out, 0);  // populated node count, patched below
  std::uint64_t nodes = 0;
  for (std::size_t i = 0; i < g.node_count(); ++i) {
    const FileId f(static_cast<std::uint32_t>(i));
    if (!g.has_node(f)) continue;
    ++nodes;
    put_raw<std::uint32_t>(out, f.value());
    put_raw<std::uint64_t>(out, g.access_count(f));
    const auto& succs = g.successors(f);
    put_raw<std::uint32_t>(out, static_cast<std::uint32_t>(succs.size()));
    for (const SuccessorEdge& e : succs) {
      put_raw<std::uint32_t>(out, e.successor.value());
      put_raw<float>(out, e.nab);
    }
    const auto& corr = g.correlators(f);
    put_raw<std::uint32_t>(out, static_cast<std::uint32_t>(corr.size()));
    for (const Correlator& c : corr) {
      put_raw<std::uint32_t>(out, c.file.value());
      put_raw<float>(out, c.degree);
    }
  }
  patch_raw<std::uint64_t>(out, nodes_at, nodes);
  return out;
}

void deserialize_shard(std::string_view blob, Farmer& shard) {
  Cursor in(blob);

  const auto requests = in.get<std::uint64_t>();
  CoMinerStats stats;
  stats.pairs_evaluated = in.get<std::uint64_t>();
  stats.pairs_accepted = in.get<std::uint64_t>();
  stats.pairs_filtered = in.get<std::uint64_t>();
  shard.restore_counters(requests, stats);

  const auto window_count = in.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < window_count; ++i)
    shard.restore_window_push(FileId(in.get<std::uint32_t>()));

  const auto state_size = in.get<std::uint64_t>();
  const auto populated = in.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < populated; ++i) {
    const FileId f(in.get<std::uint32_t>());
    SemanticVector vec;
    vec.user = TokenId(in.get<std::uint32_t>());
    vec.process = TokenId(in.get<std::uint32_t>());
    vec.host = TokenId(in.get<std::uint32_t>());
    vec.dev = TokenId(in.get<std::uint32_t>());
    vec.fid = TokenId(in.get<std::uint32_t>());
    const auto npath = in.get<std::uint32_t>();
    for (std::uint32_t c = 0; c < npath; ++c)
      vec.path_components.push_back(TokenId(in.get<std::uint32_t>()));
    Signature sig;
    const auto nitems = in.get<std::uint32_t>();
    for (std::uint32_t c = 0; c < nitems; ++c)
      sig.items.push_back(TokenId(in.get<std::uint32_t>()));
    const auto nsorted = in.get<std::uint32_t>();
    for (std::uint32_t c = 0; c < nsorted; ++c)
      sig.path_sorted.push_back(TokenId(in.get<std::uint32_t>()));
    sig.ipa_path = in.get<std::uint8_t>() != 0;
    shard.restore_file_state(f, vec, sig);
  }

  const auto node_index = in.get<std::uint64_t>();
  const auto nodes = in.get<std::uint64_t>();
  for (std::uint64_t i = 0; i < nodes; ++i) {
    const FileId f(in.get<std::uint32_t>());
    const auto access_count = in.get<std::uint64_t>();
    std::vector<SuccessorEdge> succs(in.get<std::uint32_t>());
    for (SuccessorEdge& e : succs) {
      e.successor = FileId(in.get<std::uint32_t>());
      e.nab = in.get<float>();
    }
    std::vector<Correlator> corr(in.get<std::uint32_t>());
    for (Correlator& c : corr) {
      c.file = FileId(in.get<std::uint32_t>());
      c.degree = in.get<float>();
    }
    shard.restore_graph_node(f, access_count, succs, corr);
  }

  // Restore the dense-index logical sizes last: restore_* calls above grew
  // both stores to the highest populated id; this grows them the rest of
  // the way to the checkpointed logical sizes (touch()-only slots).
  shard.restore_sizes(state_size, node_index);

  if (!in.done())
    throw std::runtime_error("checkpoint shard blob has trailing bytes");
}

std::string dictionary_bytes(const TraceDictionary* dict) {
  // Checkpoints embed the dictionary through the shared v3 codec since
  // checkpoint v2 — the legacy v2 stream codec could not represent
  // >255-component paths.
  std::string out;
  if (dict != nullptr) encode_dictionary(out, *dict);
  return out;
}

void write_checkpoint_file(const std::string& path, std::uint64_t seq,
                           const FarmerConfig& cfg,
                           std::string_view dict_bytes,
                           std::span<const std::string> shard_blobs) {
  std::uint64_t body_len = 3 * sizeof(std::uint64_t) + dict_bytes.size() +
                           sizeof(std::uint32_t);
  for (const std::string& blob : shard_blobs)
    body_len += sizeof(std::uint64_t) + blob.size();
  FramedFile out(path, kCheckpointMagic, kCheckpointVersion, body_len);
  out.put_value<std::uint64_t>(seq);
  out.put_value<std::uint64_t>(config_hash(cfg));
  out.put_value<std::uint64_t>(dict_bytes.size());
  out.put(dict_bytes);
  out.put_value<std::uint32_t>(static_cast<std::uint32_t>(shard_blobs.size()));
  for (const std::string& blob : shard_blobs) {
    out.put_value<std::uint64_t>(blob.size());
    out.put(blob);
  }
  out.commit();
}

void write_manifest(const std::string& dir, const FarmerConfig& cfg,
                    std::string_view dict_bytes) {
  const std::string path = dir + "/MANIFEST";
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) return;
  FramedFile out(path, kManifestMagic, kManifestVersion,
                 2 * sizeof(std::uint64_t) + sizeof(std::uint8_t));
  out.put_value<std::uint64_t>(config_hash(cfg));
  out.put_value<std::uint8_t>(dict_bytes.empty() ? 0 : 1);
  out.put_value<std::uint64_t>(
      dict_bytes.empty() ? 0 : checksum_bytes(dict_bytes));
  out.commit();
}

void check_manifest(const std::string& dir, const FarmerConfig& cfg,
                    std::string_view dict_bytes) {
  const std::string path = dir + "/MANIFEST";
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return;
  // The manifest is written atomically, so an unreadable one is damage, not
  // a torn write — there is no older manifest to fall back to, and replaying
  // the directory unchecked could corrupt the model, so it throws.
  const std::optional<std::string> body =
      read_framed(path, kManifestMagic, kManifestVersion);
  if (!body)
    throw std::runtime_error("persist manifest " + path + " is unreadable");
  Cursor in(*body);
  const auto stored_cfg_hash = in.get<std::uint64_t>();
  const auto has_dict = in.get<std::uint8_t>();
  const auto stored_dict_hash = in.get<std::uint64_t>();
  if (!in.done())
    throw std::runtime_error("persist manifest " + path + " is unreadable");
  if (stored_cfg_hash != config_hash(cfg))
    throw std::runtime_error(
        "persist directory " + dir +
        " was created under a different mining configuration");
  if (has_dict != 0 && !dict_bytes.empty() &&
      stored_dict_hash != checksum_bytes(dict_bytes))
    throw std::runtime_error("persist directory " + dir +
                             " is bound to a different trace dictionary");
}

void write_checkpoint_dir(const std::string& dir, std::uint64_t seq,
                          const FarmerConfig& cfg, const TraceDictionary* dict,
                          std::span<const Farmer* const> shards) {
  std::filesystem::create_directories(dir);
  std::vector<std::string> blobs;
  blobs.reserve(shards.size());
  for (const Farmer* shard : shards) blobs.push_back(serialize_shard(*shard));
  write_checkpoint_file(dir + "/CHECKPOINT." + std::to_string(seq), seq, cfg,
                        dictionary_bytes(dict), blobs);
}

std::optional<LoadedCheckpoint> read_checkpoint_file(
    const std::string& path, const FarmerConfig& cfg,
    std::string_view dict_bytes) {
  const std::optional<std::string> body =
      read_framed(path, kCheckpointMagic, kCheckpointVersion);
  if (!body) return std::nullopt;

  // The body verified: from here on mismatches are deliberate incompat, not
  // torn writes, so they throw instead of falling back.
  Cursor in(*body);
  LoadedCheckpoint out;
  out.seq = in.get<std::uint64_t>();
  const auto stored_cfg_hash = in.get<std::uint64_t>();
  if (stored_cfg_hash != config_hash(cfg))
    throw std::runtime_error(
        "checkpoint " + path +
        " was written under a different mining configuration");
  const std::string_view stored_dict = in.take(in.get<std::uint64_t>());
  if (!dict_bytes.empty() && !stored_dict.empty() &&
      stored_dict != dict_bytes)
    throw std::runtime_error("checkpoint " + path +
                             " embeds a different trace dictionary");
  const auto shard_count = in.get<std::uint32_t>();
  out.shard_blobs.reserve(shard_count);
  for (std::uint32_t s = 0; s < shard_count; ++s) {
    out.shard_blobs.emplace_back(in.take(in.get<std::uint64_t>()));
  }
  return out;
}

}  // namespace farmer::persist
