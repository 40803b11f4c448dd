// WorkerLanes<Record>: per-worker pooled append lanes with a lock-free
// record path (src/telemetry/).
//
// The shape the span rings use, generalized for variable-volume records
// (EffectTracer's TraceRecords, the flight recorder's FrameRecords): each
// recording thread binds one
// preallocated lane on first append (thread-local cache, no lock) and is
// its only writer. A lane is a pooled vector plus a release-published
// count: Append() overwrites slot `count` when capacity allows and
// publishes `count + 1`; Reserve()/Publish() do the same for a batch of
// records with one lookup and one store. After warmup the hot path touches
// no lock and
// allocates nothing — growth past the high-water mark is an amortized
// push_back, and Clear() resets counts while keeping every lane's
// capacity.
//
// Contracts:
//   * Single writer per lane (enforced by the thread binding). Readers
//     (ForEach / size) may run concurrently and see only published
//     records; they are expected to run at a quiescent point (the tick
//     barrier) for a complete view.
//   * Clear() and DrainInto() must run quiesced (no concurrent appends).
//   * Up to kMaxLiveInstances live WorkerLanes per Record type per thread:
//     the thread-local binding caches that many (instance, lane) pairs, so
//     several armed instances (e.g. user EffectTracers) do not burn lane
//     indexes on every alternation. A thread alternating among *more* live
//     instances evicts round-robin and burns a fresh lane index per
//     re-bind. Engine usage never does this.
//   * Threads beyond `max_lanes` drop their records (dropped() counts).

#ifndef SGL_TELEMETRY_WORKER_LANES_H_
#define SGL_TELEMETRY_WORKER_LANES_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sgl {

template <typename Record>
class WorkerLanes {
  struct Lane;

 public:
  explicit WorkerLanes(int max_lanes = 64)
      : lanes_(static_cast<size_t>(max_lanes > 0 ? max_lanes : 1)) {
    instance_id_ = NextInstanceId();
  }
  WorkerLanes(const WorkerLanes&) = delete;
  WorkerLanes& operator=(const WorkerLanes&) = delete;

  /// Slots reserved after the calling thread's published records (see
  /// Reserve). `slots` is null when the thread got no lane; `prev` is the
  /// lane's last published record (null when the lane is empty).
  struct Reservation {
    Lane* lane = nullptr;
    Record* slots = nullptr;
    const Record* prev = nullptr;
  };

  /// Reserves `n` slots in the calling thread's lane for a batch of
  /// records: fill a prefix of `slots`, then Publish() it. One lane lookup
  /// and one release store per batch instead of per record. Allocation-free
  /// once the lane has reached its high-water size; the slots stay valid
  /// until the thread's next Append or Reserve.
  Reservation Reserve(size_t n) {
    Lane* lane = LaneForThread();
    if (lane == nullptr) return Reservation{};
    const size_t c = lane->count.load(std::memory_order_relaxed);
    if (lane->records.size() < c + n) lane->records.resize(c + n);
    Record* slots = lane->records.data() + c;
    return Reservation{lane, slots, c > 0 ? slots - 1 : nullptr};
  }

  /// Publishes the first `used` slots of `r`.
  void Publish(const Reservation& r, size_t used) {
    if (r.lane == nullptr) {
      dropped_.fetch_add(static_cast<int64_t>(used),
                         std::memory_order_relaxed);
      return;
    }
    const size_t c = r.lane->count.load(std::memory_order_relaxed);
    r.lane->count.store(c + used, std::memory_order_release);
  }

  /// Appends a copy of `r` to the calling thread's lane. Allocation-free
  /// once the lane has reached its high-water capacity.
  void Append(const Record& r) {
    Lane* lane = LaneForThread();
    if (lane == nullptr) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const size_t n = lane->count.load(std::memory_order_relaxed);
    if (n == lane->records.size()) {
      lane->records.push_back(r);
    } else {
      lane->records[n] = r;
    }
    lane->count.store(n + 1, std::memory_order_release);
  }

  /// Published records across all lanes.
  size_t size() const {
    size_t n = 0;
    for (const Lane& lane : lanes_) {
      n += lane.count.load(std::memory_order_acquire);
    }
    return n;
  }

  /// Lanes holding published records.
  int active_lanes() const {
    int n = 0;
    for (const Lane& lane : lanes_) {
      n += lane.count.load(std::memory_order_acquire) > 0 ? 1 : 0;
    }
    return n;
  }

  /// Visits every published record, lane-major. Quiescent-point API.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Lane& lane : lanes_) {
      const size_t c = lane.count.load(std::memory_order_acquire);
      for (size_t i = 0; i < c; ++i) fn(lane.records[i]);
    }
  }

  /// Moves every published record into `*out` in ForEach's lane-major
  /// order, keeping the first `cap`; returns how many it kept. The first
  /// non-empty lane trades buffers with `*out` in O(1) — the lane goes on
  /// recording into `*out`'s old storage, grown to the capacity the lane
  /// just used, so pooled capacities rotate instead of being copied — and
  /// later lanes append after it. Every lane restarts empty. Must run
  /// quiesced.
  size_t DrainInto(std::vector<Record>* out, size_t cap) {
    size_t n = 0;
    bool swapped = false;
    for (Lane& lane : lanes_) {
      const size_t c = lane.count.load(std::memory_order_acquire);
      lane.count.store(0, std::memory_order_relaxed);
      if (c == 0) continue;
      if (!swapped) {
        out->swap(lane.records);
        swapped = true;
        // Hand the lane the capacity it just reached in one step, rather
        // than regrowing the traded buffer by doubling while recording.
        if (lane.records.capacity() < out->capacity()) {
          lane.records.clear();
          lane.records.reserve(out->capacity());
        }
        n = c < cap ? c : cap;
        continue;
      }
      const size_t take = c < cap - n ? c : cap - n;
      if (out->size() < n + take) out->resize(n + take);
      std::copy_n(lane.records.begin(), take,
                  out->begin() + static_cast<ptrdiff_t>(n));
      n += take;
    }
    return n;
  }

  /// Resets every lane's count, keeping capacity (pooled reuse). Must run
  /// quiesced.
  void Clear() {
    for (Lane& lane : lanes_) {
      lane.count.store(0, std::memory_order_relaxed);
    }
  }

  int64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

 private:
  struct Lane {
    std::vector<Record> records;
    std::atomic<size_t> count{0};
  };
  /// Live instances one thread can record into without re-binding (see
  /// header contract). The engine binds at most one per Record type (the
  /// user tracer, the flight recorder); 4 leaves headroom for tests.
  static constexpr int kMaxLiveInstances = 4;
  struct Binding {
    uint64_t owner = 0;
    Lane* lane = nullptr;
  };
  struct Bindings {
    Binding entries[kMaxLiveInstances];
    int next_evict = 0;
  };

  static uint64_t NextInstanceId() {
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  Lane* LaneForThread() {
    static thread_local Bindings tls;  // per (Record type, thread)
    for (const Binding& b : tls.entries) {
      if (b.owner == instance_id_) return b.lane;
    }
    const int idx = next_lane_.fetch_add(1, std::memory_order_relaxed);
    Binding* slot = nullptr;
    for (Binding& b : tls.entries) {
      if (b.owner == 0) {
        slot = &b;
        break;
      }
    }
    if (slot == nullptr) {  // all occupied (likely by dead instances): rotate
      slot = &tls.entries[tls.next_evict];
      tls.next_evict = (tls.next_evict + 1) % kMaxLiveInstances;
    }
    slot->owner = instance_id_;
    slot->lane = idx < static_cast<int>(lanes_.size())
                     ? &lanes_[static_cast<size_t>(idx)]
                     : nullptr;
    return slot->lane;
  }

  std::vector<Lane> lanes_;  ///< sized once (atomics are not movable)
  uint64_t instance_id_ = 0;
  std::atomic<int> next_lane_{0};
  std::atomic<int64_t> dropped_{0};
};

}  // namespace sgl

#endif  // SGL_TELEMETRY_WORKER_LANES_H_
