// Checkpointing and replay logging (§3.3: "SGL should include support for
// logging, including resumable checkpoints").
//
// Checkpoints are taken at tick boundaries (effect buffers empty by
// construction) and capture the complete World plus the tick counter.
// Restoring and resuming is bit-equivalent to having never stopped —
// Checkpoint.RestoreResumesBitExact (tests/debug_test.cc) asserts it. The
// replay log captures a cheap per-tick state checksum so two runs can be
// compared tick-by-tick without storing full snapshots.

#ifndef SGL_DEBUG_CHECKPOINT_H_
#define SGL_DEBUG_CHECKPOINT_H_

#include <string>
#include <vector>

#include "src/storage/world.h"

namespace sgl {

/// A resumable snapshot.
struct Checkpoint {
  Tick tick = 0;
  std::string state;  ///< serialized World
  /// Reserved: the on-disk format keeps this section (checkpoint_file.h),
  /// but the engine writes it empty and ignores it on restore, because the
  /// shard blocks are worked out each tick. Checkpoints of earlier versions
  /// that stored a partition here still restore.
  std::string shard_partition;
  /// In-flight JobService submissions (JobService::SerializeInFlight): a
  /// restore re-creates each job so it installs at its originally
  /// contracted tick, instead of cancelling and re-requesting. Empty when
  /// no jobs were in flight (or on legacy checkpoints).
  std::string jobs;
  /// Private update-component state (ComponentRegistry::SerializeState):
  /// cross-tick caches that are not derivable from world columns. Empty on
  /// legacy checkpoints — restore then falls back to NotifyRestore().
  std::string components;
};

/// Captures `world` at `tick`.
Checkpoint TakeCheckpoint(const World& world, Tick tick);

/// Restores a snapshot into a world built over the same catalog.
Status RestoreCheckpoint(const Checkpoint& cp, World* world);

/// Incremental FNV-1a over raw bytes (chainable: pass the previous return
/// as `h`). The checksum primitive shared by the world checksums below and
/// the checkpoint file format (checkpoint_file.h).
uint64_t Fnv1a(const void* data, size_t len,
               uint64_t h = 0xcbf29ce484222325ULL);

/// FNV-1a checksum over all state columns of all classes — cheap enough to
/// run every tick, strong enough for run-equivalence checks. Sensitive to
/// row order (row-major over dense rows).
uint64_t WorldChecksum(const World& world);

/// Row-order-independent variant: rows are visited in ascending EntityId
/// order (row-major), so any permutation of rows — e.g. the one a
/// swap-remove despawn makes — leaves the checksum unchanged. Compares
/// worlds that hold the same entities in different row orders.
uint64_t CanonicalWorldChecksum(const World& world);

/// Per-tick checksum log with optional periodic full checkpoints.
class ReplayLog {
 public:
  /// `checkpoint_every` <= 0 disables periodic snapshots.
  explicit ReplayLog(int checkpoint_every = 0)
      : checkpoint_every_(checkpoint_every) {}

  /// Appends this tick's checksum (and snapshot if due).
  void Record(const World& world, Tick tick);

  size_t size() const { return checksums_.size(); }
  uint64_t checksum(size_t i) const { return checksums_[i]; }

  /// First index where this log and `other` diverge, or -1 if the common
  /// prefix matches.
  int64_t FirstDivergence(const ReplayLog& other) const;

  /// Latest stored checkpoint at-or-before `tick`, or nullptr.
  const Checkpoint* LatestCheckpointBefore(Tick tick) const;

 private:
  int checkpoint_every_;
  std::vector<uint64_t> checksums_;
  std::vector<Checkpoint> checkpoints_;
};

}  // namespace sgl

#endif  // SGL_DEBUG_CHECKPOINT_H_
