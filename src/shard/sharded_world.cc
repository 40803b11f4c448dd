#include "src/shard/sharded_world.h"

#include <algorithm>
#include <cstring>

namespace sgl {

namespace {
// Partition blob layout: magic, shard count, class count, then per class
// `num_shards + 1` uint32 range boundaries (prefix sums).
constexpr uint32_t kPartitionMagic = 0x53504152u;  // "SPAR"

void AppendU32(std::string* out, uint32_t v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

bool ReadU32(const char** cursor, const char* end, uint32_t* v) {
  if (static_cast<size_t>(end - *cursor) < sizeof(*v)) return false;
  std::memcpy(v, *cursor, sizeof(*v));
  *cursor += sizeof(*v);
  return true;
}
}  // namespace

ShardedWorld::ShardedWorld(World* world, int num_shards)
    : world_(world), num_shards_(num_shards) {
  // Shard ids fit the 8-bit provenance and trace-track fields.
  SGL_CHECK(num_shards_ >= 1 && num_shards_ < 255);
  bases_.resize(static_cast<size_t>(world_->catalog().num_classes()));
}

void ShardedWorld::PartitionBlock() {
  const size_t S = static_cast<size_t>(num_shards_);
  for (size_t c = 0; c < bases_.size(); ++c) {
    const size_t n = world_->table(static_cast<ClassId>(c)).size();
    bases_[c].resize(S + 1);
    for (size_t s = 0; s <= S; ++s) {
      bases_[c][s] = static_cast<RowIdx>(n * s / S);
    }
  }
  partitioned_ = true;
}

void ShardedWorld::EnsurePartition() {
  if (!partitioned_) {
    PartitionBlock();
    return;
  }
  // Spawns append and despawns swap-remove through the plain World API;
  // clamping every boundary to the class size shrinks the last non-empty
  // shard and gives new rows to the last shard.
  for (size_t c = 0; c < bases_.size(); ++c) {
    const RowIdx n =
        static_cast<RowIdx>(world_->table(static_cast<ClassId>(c)).size());
    std::vector<RowIdx>& base = bases_[c];
    for (RowIdx& b : base) b = std::min(b, n);
    base.back() = n;
  }
}

void ShardedWorld::SerializePartition(std::string* out) {
  EnsurePartition();
  AppendU32(out, kPartitionMagic);
  AppendU32(out, static_cast<uint32_t>(num_shards_));
  AppendU32(out, static_cast<uint32_t>(bases_.size()));
  for (const std::vector<RowIdx>& base : bases_) {
    for (RowIdx b : base) AppendU32(out, b);
  }
}

Status ShardedWorld::RestorePartition(const std::string& data) {
  const char* cursor = data.data();
  const char* end = data.data() + data.size();
  uint32_t magic, shards, classes;
  if (!ReadU32(&cursor, end, &magic) || magic != kPartitionMagic) {
    return Status::Internal("shard partition: bad magic");
  }
  if (!ReadU32(&cursor, end, &shards) ||
      shards != static_cast<uint32_t>(num_shards_)) {
    return Status::InvalidArgument(
        "shard partition: checkpoint taken under a different shard count");
  }
  if (!ReadU32(&cursor, end, &classes) || classes != bases_.size()) {
    return Status::Internal("shard partition: class count mismatch");
  }
  const size_t S = static_cast<size_t>(num_shards_);
  // Validate everything before touching any partition state.
  std::vector<std::vector<RowIdx>> bases(bases_.size());
  for (size_t c = 0; c < bases_.size(); ++c) {
    bases[c].resize(S + 1);
    for (size_t s = 0; s <= S; ++s) {
      uint32_t v;
      if (!ReadU32(&cursor, end, &v)) {
        return Status::Internal("shard partition: truncated boundaries");
      }
      bases[c][s] = v;
      if (s > 0 && v < bases[c][s - 1]) {
        return Status::Internal("shard partition: non-monotone boundaries");
      }
    }
    if (bases[c][0] != 0 ||
        bases[c][S] != world_->table(static_cast<ClassId>(c)).size()) {
      return Status::Internal(
          "shard partition: boundaries do not cover the restored rows");
    }
  }
  if (cursor != end) {
    return Status::Internal("shard partition: trailing bytes");
  }
  bases_ = std::move(bases);
  partitioned_ = true;
  return Status::OK();
}

int ShardedWorld::ShardOfEntity(EntityId id) {
  EnsurePartition();
  const World::Locator* loc = world_->Find(id);
  if (loc == nullptr) return -1;
  // The last boundary <= row starts the shard that holds it (an empty
  // shard's begin equals the next shard's and is skipped).
  const std::vector<RowIdx>& base = bases_[static_cast<size_t>(loc->cls)];
  const auto it = std::upper_bound(base.begin(), base.end(), loc->row);
  return static_cast<int>(it - base.begin()) - 1;
}

bool ShardedWorld::PartitionConsistent() {
  EnsurePartition();
  const size_t S = static_cast<size_t>(num_shards_);
  for (size_t c = 0; c < bases_.size(); ++c) {
    const std::vector<RowIdx>& base = bases_[c];
    const EntityTable& table = world_->table(static_cast<ClassId>(c));
    if (base.size() != S + 1 || base[0] != 0 || base[S] != table.size()) {
      return false;
    }
    for (size_t s = 0; s < S; ++s) {
      if (base[s] > base[s + 1]) return false;
    }
    for (RowIdx r = 0; r < table.size(); ++r) {
      const World::Locator* loc = world_->Find(table.id_at(r));
      if (loc == nullptr || loc->cls != static_cast<ClassId>(c) ||
          loc->row != r) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace sgl
