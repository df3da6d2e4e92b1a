// Checkpoint serialization for the durable persistence subsystem.
//
// A checkpoint is a versioned, checksummed, self-describing snapshot of the
// full miner model: per-shard semantic vectors/signatures, correlation-graph
// nodes (successor edges and Correlator Lists in stored order), CoMiner
// counters, the access window, and the embedded trace dictionary. It is
// written atomically (tmp file + flush + fsync + rename), so a crash during
// a checkpoint leaves the previous one intact, and it captures enough state
// that checkpoint-load followed by WAL-tail replay is byte-identical to
// replaying the full record history (the kill-and-recover differential test
// pins this down).
//
// File layout (little-endian):
//
//   [u32 magic][u32 version][u64 body_len][body...][u64 checksum]
//
//   body := u64 seq            records covered by this checkpoint
//           u64 config_hash    canonical FarmerConfig fingerprint
//           u64 dict_len       embedded dictionary (0 = none; the shared
//                              v3 codec, trace_io encode_dictionary)
//           dict bytes
//           u32 shard_count
//           shard_count x (u64 blob_len, blob bytes)
//
// The checksum is a mix64 chain over the body, so torn or bit-flipped
// checkpoints are detected on load and recovery falls back to the previous
// checkpoint (see persist::recover_dir). The writer streams the frame:
// body_len is summed up front, then the header, dictionary and shard blobs
// go straight to the file through an incremental checksum — the body is
// never assembled in memory, and the bytes on disk are the same as if it
// had been.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "trace/record.hpp"

namespace farmer {

class Farmer;

namespace persist {

inline constexpr std::uint32_t kCheckpointMagic = 0xFA12C4E7;
/// v2: the embedded dictionary moved from the legacy v2 stream codec to the
/// shared v3 codec (u32 path-component counts). v1 files are rejected.
inline constexpr std::uint32_t kCheckpointVersion = 2;
inline constexpr std::uint32_t kManifestMagic = 0xFA12B14D;
inline constexpr std::uint32_t kManifestVersion = 2;

/// Canonical fingerprint over every FarmerConfig field. Stored in the
/// checkpoint and verified on load: restoring a model mined under different
/// parameters would silently corrupt query results, so a mismatch throws.
[[nodiscard]] std::uint64_t config_hash(const FarmerConfig& cfg);

/// Serializes one Farmer shard's full model state in one pass over it (the
/// populated-entry and node counts are written as placeholders and patched
/// at the end). Safe on a live shard (single-threaded contract; distinct
/// shards may be serialized concurrently) or on an immutable published COW
/// snapshot — the concurrent backend checkpoints the latter without
/// stopping ingest.
[[nodiscard]] std::string serialize_shard(const Farmer& shard);

/// Restores a blob produced by serialize_shard into `shard`, which must be
/// freshly constructed with the same config. Throws std::runtime_error on
/// truncated or malformed blobs.
void deserialize_shard(std::string_view blob, Farmer& shard);

/// The dictionary bytes checkpoints embed and the manifest hashes: the
/// shared v3 codec (trace_io encode_dictionary), empty for no dictionary.
/// The dictionary is immutable for a miner's lifetime, so the Persister
/// encodes it once at open() and hands the bytes to every write below.
[[nodiscard]] std::string dictionary_bytes(const TraceDictionary* dict);

/// Writes `dir + "/MANIFEST"` atomically if it does not exist yet: the
/// config hash plus a hash of the encoded dictionary (`dict_bytes`, empty
/// for none). The manifest binds
/// a persist directory to its config + dictionary from the *first* open —
/// checkpoints carry the same binding, but a directory killed before its
/// first checkpoint holds only WAL segments, and without the manifest a
/// reopen under a different trace would replay foreign records into a
/// mismatched model. A present manifest is left untouched.
void write_manifest(const std::string& dir, const FarmerConfig& cfg,
                    std::string_view dict_bytes);

/// Validates `dir + "/MANIFEST"` against `cfg`/`dict_bytes`. An absent
/// manifest passes (empty directory, or one populated only by save()).
/// Throws std::runtime_error when the manifest is unreadable or records a
/// different config hash / dictionary hash. Empty `dict_bytes` skips the
/// dictionary comparison, as does a manifest written without a dictionary.
void check_manifest(const std::string& dir, const FarmerConfig& cfg,
                    std::string_view dict_bytes);

/// A checksum-validated checkpoint as read back from disk.
struct LoadedCheckpoint {
  std::uint64_t seq = 0;                 ///< records the checkpoint covers
  std::vector<std::string> shard_blobs;  ///< one blob per shard, in order
};

/// Writes the checkpoint file at `path` atomically: the bytes stream into
/// `path + ".tmp"`, are flushed and fsync'd, and the tmp is renamed over
/// `path` (with a directory fsync so the rename itself is durable).
/// `dict_bytes` is dictionary_bytes() of the miner's dictionary. Throws
/// std::runtime_error on I/O failure and leaves no tmp behind.
void write_checkpoint_file(const std::string& path, std::uint64_t seq,
                           const FarmerConfig& cfg,
                           std::string_view dict_bytes,
                           std::span<const std::string> shard_blobs);

/// save()-path convenience: creates `dir` if needed, serializes the given
/// live shards and writes `dir + "/CHECKPOINT.<seq>"` atomically.
void write_checkpoint_dir(const std::string& dir, std::uint64_t seq,
                          const FarmerConfig& cfg, const TraceDictionary* dict,
                          std::span<const Farmer* const> shards);

/// Reads and validates one checkpoint file. Returns std::nullopt when the
/// file is torn, truncated, or fails its checksum (recovery then falls back
/// to an older checkpoint). Throws std::runtime_error when the checkpoint is
/// *valid but incompatible* — config hash mismatch, or an embedded
/// dictionary that differs from `dict_bytes` — because silently ignoring
/// those would corrupt the restored model. Empty `dict_bytes` skips the
/// dictionary comparison.
[[nodiscard]] std::optional<LoadedCheckpoint> read_checkpoint_file(
    const std::string& path, const FarmerConfig& cfg,
    std::string_view dict_bytes);

}  // namespace persist
}  // namespace farmer
