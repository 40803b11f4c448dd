// Durable container files: checkpoints and black-box dumps.
//
// Both artifacts are instances of one versioned, double-checksummed
// container — magic, version, fixed u64 header words, N byte sections —
// written atomically (`<path>.tmp` + fflush + fsync + rename) and kept in a
// rotating newest-good directory. The layout, the two instances (72-byte
// "SGLCKPT1" checkpoints, 88-byte "SGLBBOX1" black boxes), the validation
// order, the write protocol and the store are specified in
// CHECKPOINT_FORMAT.md next to this file.
//
// All checkpoint fault sites (ckpt.write.*, ckpt.read.bitflip,
// ckpt.serialize.allocfail) are implemented here; black boxes are written
// and read with no injector.

#ifndef SGL_DEBUG_CHECKPOINT_FILE_H_
#define SGL_DEBUG_CHECKPOINT_FILE_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/debug/checkpoint.h"

namespace sgl {

class FaultInjector;

/// Atomically writes `cp` to `path` (via `<path>.tmp` + fsync + rename).
/// With an armed `fault`, the ckpt.write.* / ckpt.serialize.allocfail sites
/// evaluate at `cp.tick`: a short write or bit flip corrupts the image
/// (renamed anyway — the corruption-detection tests), a torn write stops
/// before the rename and returns an injected-crash Status (the atomicity
/// tests), an alloc failure aborts serialization with a clean Internal.
Status SaveCheckpointFile(const Checkpoint& cp, const std::string& path,
                          FaultInjector* fault = nullptr);

/// Reads and validates `path` into `out`, which is written only on
/// success. NotFound when the file does not exist; InvalidArgument when
/// `path` is not a regular file or on any corruption — bad magic, version,
/// checksum, or size arithmetic. The ckpt.read.bitflip site evaluates at
/// tick 0 with the file size as key.
Status LoadCheckpointFile(const std::string& path, Checkpoint* out,
                          FaultInjector* fault = nullptr);

/// One self-contained black-box dump (flight recorder post-mortem).
/// `chrome_trace` and `metrics` carry wall-clock timings; the provenance
/// section and the world checksum are deterministic — those are the bytes
/// the never-crashed-vs-recovered differential compares.
struct BlackBoxDump {
  Tick tick = 0;
  uint64_t world_checksum = 0;
  std::string reason;        ///< which trigger fired, human-readable
  std::string chrome_trace;  ///< Chrome trace-event JSON of the ring window
  std::string metrics;       ///< metrics snapshot (text)
  std::string sites;         ///< DescribeSitesJson() output
  std::string provenance;    ///< flat serialized ring-tail frame records
};

/// Atomically writes `dump` to `path` (`<path>.tmp` + fsync + rename).
Status SaveBlackBoxFile(const BlackBoxDump& dump, const std::string& path);

/// Reads and validates `path` into `out` — same contract as
/// LoadCheckpointFile, with no fault site.
Status LoadBlackBoxFile(const std::string& path, BlackBoxDump* out);

/// A rotating directory of container files named
/// `<prefix><zero-padded-tick><suffix>`, for T = Checkpoint or BlackBoxDump.
template <typename T>
class ContainerStore {
 public:
  /// Saves `item`, then prunes the oldest files beyond the keep budget.
  /// Pruning only runs after a fully successful save, so a failed save
  /// never costs an older good file.
  Status Save(const T& item);

  /// Newest file that validates, walking backwards over anything corrupt,
  /// torn or unreadable. NotFound when no file in the directory validates.
  StatusOr<T> LoadLatestGood() const;

  /// File names in the store, ascending by tick.
  std::vector<std::string> ListFiles() const;

  const std::string& dir() const { return dir_; }

 protected:
  /// Creates `dir` if needed. Keeps the newest `keep` files (clamped to
  /// >= 2: fallback-to-previous-good requires a previous good). `fault`
  /// (may be null) is threaded into every file save/load.
  ContainerStore(std::string dir, int keep, FaultInjector* fault);

 private:
  std::string dir_;
  int keep_;
  FaultInjector* fault_;
};

extern template class ContainerStore<Checkpoint>;
extern template class ContainerStore<BlackBoxDump>;

/// `ckpt_<tick>.sgl` files; `fault` reaches every save and load.
class CheckpointStore : public ContainerStore<Checkpoint> {
 public:
  explicit CheckpointStore(std::string dir, int keep = 3,
                           FaultInjector* fault = nullptr)
      : ContainerStore(std::move(dir), keep, fault) {}
};

/// `bbox_<tick>.sbb` files.
class BlackBoxStore : public ContainerStore<BlackBoxDump> {
 public:
  explicit BlackBoxStore(std::string dir, int keep = 4)
      : ContainerStore(std::move(dir), keep, nullptr) {}
};

}  // namespace sgl

#endif  // SGL_DEBUG_CHECKPOINT_FILE_H_
