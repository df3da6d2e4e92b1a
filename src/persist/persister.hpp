// The durable persistence driver: record WAL with group commit, checkpoint
// lifecycle, and bounded-time recovery.
//
// Directory layout (one directory per miner, `MinerOptions::persist_dir`):
//
//   MANIFEST           config + dictionary binding, written at first open
//   CHECKPOINT.<seq>   checkpoint covering records [1, seq] (checkpoint.hpp)
//   wal.<base>         LogStore segment holding records base+1, base+2, ...
//
// WAL keys are absolute 1-based record sequence numbers; values are the raw
// TraceRecord encoding (trace_io). Appends batch through one LogStore;
// every `wal_group_commit` records close a commit group whose fsync runs on
// a dedicated group-sync thread (Pomegranate-style transaction groups: the
// appender opens the next group while the previous one syncs), so the
// ingest path never blocks on the disk and the crash-loss window stays
// bounded to the groups still in flight. Checkpoint rotation, rebase and
// shutdown sync inline — those are the points that need a durable cut.
//
// Checkpoints rotate the WAL first (begin_checkpoint, cheap and synchronous
// at a point where appended == applied); the owner of the shard state then
// captures it — DurableMiner serializes its live shards on the apply lanes
// right at the cut, ConcurrentFarmer hands over its immutable published COW
// snapshots — and submit_checkpoint() gives the job to the Persister's one
// background checkpoint writer. That thread, beside the group-sync thread,
// runs any remaining serialization, streams CHECKPOINT.<seq> to disk
// (checksum, write, fsync, rename) and prunes superseded checkpoints and
// fully-covered WAL segments, all off the caller's thread. One write is in
// flight at a time, and a checkpoint covers exactly the records appended
// before its begin_checkpoint.
//
// Failures on either background thread never reach std::terminate: the
// first exception is latched as a sticky error that check() rethrows (the
// miners call it from observe, observe_batch, flush and load), and once
// latched the Persister appends and checkpoints nothing more, so the files
// on disk stay a durable prefix. Prune only runs after a successful write
// and the WAL keeps every record, so a failed checkpoint loses nothing.
// The destructor drains the writer, syncs the WAL and swallows errors.
//
// Recovery (recover_dir): newest checksum-valid checkpoint + the contiguous
// WAL tail above its sequence number, torn records truncated. Recovery time
// is bounded by checkpoint size + one checkpoint interval of WAL replay.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "kvstore/log_store.hpp"
#include "trace/record.hpp"

namespace farmer::persist {

/// Defaults applied when MinerOptions leaves the knobs at 0.
inline constexpr std::size_t kDefaultCheckpointInterval = 1u << 16;
inline constexpr std::size_t kDefaultWalGroupCommit = 4096;

struct Options {
  std::string dir;  ///< persist directory (created if needed)
  /// Checkpoint every N appended records (0 = kDefaultCheckpointInterval).
  std::size_t checkpoint_interval_records = 0;
  /// fsync the WAL every N appended records (0 = kDefaultWalGroupCommit;
  /// 1 = every record).
  std::size_t wal_group_commit = 0;
  /// kFsync for real durability; kBuffered keeps tests fast.
  LogStore::Durability durability = LogStore::Durability::kFsync;
};

/// Everything recovery found in a persist directory.
struct Recovery {
  std::uint64_t checkpoint_seq = 0;      ///< 0 when no valid checkpoint
  std::vector<std::string> shard_blobs;  ///< empty when no valid checkpoint
  std::vector<TraceRecord> tail;         ///< WAL records after checkpoint_seq

  /// Records the directory durably holds: checkpoint + contiguous tail.
  [[nodiscard]] std::uint64_t durable_records() const noexcept {
    return checkpoint_seq + tail.size();
  }
};

/// Reads a persist directory: validates the MANIFEST binding, then the
/// newest checksum-valid checkpoint (corrupt ones fall back to older) plus
/// the contiguous WAL tail above it, truncating torn records. A manifest or
/// checkpoint recording a different config/dictionary throws — see
/// checkpoint.hpp. Safe on a directory no Persister has open. An absent or
/// empty directory recovers to the empty model.
[[nodiscard]] Recovery recover_dir(const std::string& dir,
                                   const FarmerConfig& cfg,
                                   const TraceDictionary* dict);
/// The same with the dictionary already encoded (checkpoint.hpp
/// dictionary_bytes; empty skips the dictionary checks).
[[nodiscard]] Recovery recover_dir(const std::string& dir,
                                   const FarmerConfig& cfg,
                                   std::string_view dict_bytes);

class Persister {
 public:
  /// Produces the shard blobs of a submitted checkpoint on the writer
  /// thread; it must only read state nothing else mutates (already
  /// serialized blobs, or immutable published snapshots).
  using BlobSource = std::function<std::vector<std::string>()>;

  explicit Persister(Options opts);
  /// Finishes any submitted checkpoint, stops both background threads and
  /// syncs the WAL; a failure is swallowed (the directory stays a durable
  /// prefix — see the header comment).
  ~Persister();
  Persister(const Persister&) = delete;
  Persister& operator=(const Persister&) = delete;

  [[nodiscard]] const Options& options() const noexcept { return opts_; }

  /// Opens the directory: runs recovery, positions the append cursor at the
  /// durable end, and starts a fresh WAL segment. Must be called exactly
  /// once, before any append. `cfg` is retained for checkpoint writing;
  /// `dict` (may be null — the dictionary checks are then skipped) is
  /// encoded once here, and the bytes serve the manifest and every
  /// checkpoint.
  [[nodiscard]] Recovery open(const FarmerConfig& cfg,
                              std::shared_ptr<const TraceDictionary> dict);

  /// Appends records to the WAL in ingest order; crossing a group-commit
  /// boundary hands the group to the background sync thread (the appender
  /// does not wait for the fsync). Returns the sequence number of the last
  /// record appended. Single appender at a time (the drain thread / the
  /// synchronous caller); safe against the background writer. Throws the
  /// latched error, or a WAL write error (which it latches).
  std::uint64_t append(std::span<const TraceRecord> records);

  /// Sequence number of the last appended record.
  [[nodiscard]] std::uint64_t appended_seq() const;

  /// True once a checkpoint interval of records accumulated since the last
  /// initiated checkpoint — never after an error was latched.
  [[nodiscard]] bool checkpoint_due() const;

  /// Initiates a checkpoint at the current appended sequence: syncs and
  /// rotates the WAL (new segment based at the returned seq). Call at a
  /// point where every appended record is also applied to the model and no
  /// checkpoint is in flight, capture the shard state, then
  /// submit_checkpoint(). Cheap — serialization happens outside.
  std::uint64_t begin_checkpoint();

  /// Hands CHECKPOINT.<seq> to the background writer: it calls `blobs`,
  /// writes the file atomically, then prunes — keeps the two newest
  /// checkpoints and deletes WAL segments fully covered by the older
  /// retained one. Waits first if a previous write is still in flight. A
  /// failure is latched, not thrown.
  void submit_checkpoint(std::uint64_t seq, BlobSource blobs);

  /// True while a submitted checkpoint is not yet written (or failed).
  [[nodiscard]] bool checkpoint_in_flight() const;

  /// Blocks until no checkpoint is in flight. Does not throw; follow with
  /// check() to surface a failed write.
  void wait_checkpoint();

  /// Rethrows the sticky error latched by the background writer, the
  /// group-sync thread or a failed append/rotation, if any.
  void check() const;

  /// Re-bases the WAL after the model was replaced externally (load()):
  /// the append cursor jumps to `seq` and a fresh segment starts there.
  /// Follow with a checkpoint at `seq` so the directory covers the loaded
  /// state. No checkpoint may be in flight.
  void rebase(std::uint64_t seq);

  /// Sequence covered by the last *initiated* checkpoint (or rebase).
  [[nodiscard]] std::uint64_t last_checkpoint_seq() const;

 private:
  void open_segment_locked(std::uint64_t base);
  void prune_locked(std::uint64_t committed_seq);
  /// Latches the in-flight exception as the sticky error (first one wins).
  void latch_locked();
  void sync_loop();
  void write_loop();

  Options opts_;
  FarmerConfig cfg_;
  std::string dict_bytes_;  // encoded once at open(); immutable afterwards
  bool opened_ = false;

  mutable std::mutex mu_;
  // shared_ptr: the group-sync thread syncs outside the lock while a
  // checkpoint rotation may concurrently swap in a fresh segment (the old
  // one stays alive until the in-flight sync drops its reference).
  std::shared_ptr<LogStore> wal_;  // current segment
  std::uint64_t wal_base_ = 0;
  std::uint64_t appended_ = 0;      // absolute seq of the last append
  std::size_t unsynced_ = 0;        // records since the last group boundary
  std::uint64_t last_ckpt_ = 0;     // last initiated checkpoint seq
  std::uint64_t sync_goal_ = 0;     // newest group boundary to fsync
  bool stop_ = false;               // both background threads
  std::exception_ptr error_;        // sticky first failure
  std::condition_variable sync_cv_;
  std::thread sync_thread_;

  // The checkpoint writer's one-slot job queue, guarded by mu_.
  BlobSource job_;                  // set = submitted, not yet picked up
  std::uint64_t job_seq_ = 0;
  bool writing_ = false;            // the writer holds a job
  std::condition_variable write_cv_;  // writer: a job or stop arrived
  std::condition_variable idle_cv_;   // waiters: the writer went idle
  std::thread write_thread_;
};

}  // namespace farmer::persist
