#include "src/shard/sharded_world.h"

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
  SGL_CHECK(num_shards_ >= 1 && num_shards_ < 255);  // shard ids fit uint8
  parts_.resize(static_cast<size_t>(world_->catalog().num_classes()));
}

void ShardedWorld::PartitionBlock() {
  const int num_classes = world_->catalog().num_classes();
  const size_t S = static_cast<size_t>(num_shards_);
  for (ClassId c = 0; c < num_classes; ++c) {
    ClassPartition& part = parts_[static_cast<size_t>(c)];
    const size_t n = world_->table(c).size();
    part.base.resize(S + 1);
    part.shard_of.resize(n);
    for (size_t s = 0; s <= S; ++s) {
      part.base[s] = static_cast<RowIdx>(n * s / S);
    }
    for (size_t s = 0; s < S; ++s) {
      std::fill(part.shard_of.begin() + part.base[s],
                part.shard_of.begin() + part.base[s + 1],
                static_cast<uint8_t>(s));
    }
  }
  partitioned_ = true;
}

void ShardedWorld::EnsurePartition() {
  if (!partitioned_) {
    PartitionBlock();
    return;
  }
  // Spawns go through the plain World API and leave shard_of short; fold
  // the new rows into the last shard (a pure append).
  const int num_classes = world_->catalog().num_classes();
  for (ClassId c = 0; c < num_classes; ++c) {
    ClassPartition& part = parts_[static_cast<size_t>(c)];
    const size_t n = world_->table(c).size();
    if (part.shard_of.size() == n) continue;
    SGL_CHECK(part.shard_of.size() < n &&
              "rows were removed behind the partition's back");
    part.shard_of.resize(n, static_cast<uint8_t>(num_shards_ - 1));
    part.base[static_cast<size_t>(num_shards_)] = static_cast<RowIdx>(n);
  }
}

void ShardedWorld::SerializePartition(std::string* out) {
  EnsurePartition();
  AppendU32(out, kPartitionMagic);
  AppendU32(out, static_cast<uint32_t>(num_shards_));
  AppendU32(out, static_cast<uint32_t>(parts_.size()));
  for (const ClassPartition& part : parts_) {
    for (RowIdx base : part.base) AppendU32(out, base);
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
  if (!ReadU32(&cursor, end, &classes) || classes != parts_.size()) {
    return Status::Internal("shard partition: class count mismatch");
  }
  const size_t S = static_cast<size_t>(num_shards_);
  // Validate everything before touching any partition state.
  std::vector<std::vector<RowIdx>> bases(parts_.size());
  for (size_t c = 0; c < parts_.size(); ++c) {
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
  for (size_t c = 0; c < parts_.size(); ++c) {
    ClassPartition& part = parts_[c];
    part.base = std::move(bases[c]);
    part.shard_of.resize(part.base[S]);
    for (size_t s = 0; s < S; ++s) {
      std::fill(part.shard_of.begin() + part.base[s],
                part.shard_of.begin() + part.base[s + 1],
                static_cast<uint8_t>(s));
    }
  }
  partitioned_ = true;
  return Status::OK();
}

int ShardedWorld::ShardOfEntity(EntityId id) {
  EnsurePartition();
  const World::Locator* loc = world_->Find(id);
  if (loc == nullptr) return -1;
  return ShardOfRow(loc->cls, loc->row);
}

Status ShardedWorld::Despawn(EntityId id) {
  EnsurePartition();
  const World::Locator* loc = world_->Find(id);
  if (loc == nullptr) {
    return Status::NotFound("cannot despawn: entity does not exist");
  }
  const ClassId cls = loc->cls;
  const RowIdx row = loc->row;
  world_->DirectoryErase(id);
  EntityTable& table = world_->table(cls);
  const RowSlice keep[2] = {
      RowSlice{0, row},
      RowSlice{row + 1, static_cast<uint32_t>(table.size() - row - 1)}};
  table.RebuildBySlices(keep, 2, &rebuild_scratch_);
  world_->ReindexClass(cls);
  ClassPartition& part = parts_[static_cast<size_t>(cls)];
  for (size_t s = part.shard_of[row] + 1u; s < part.base.size(); ++s) {
    --part.base[s];
  }
  part.shard_of.erase(part.shard_of.begin() + row);
  return Status::OK();
}

bool ShardedWorld::PartitionConsistent() const {
  const int num_classes = world_->catalog().num_classes();
  const size_t S = static_cast<size_t>(num_shards_);
  for (ClassId c = 0; c < num_classes; ++c) {
    const ClassPartition& part = parts_[static_cast<size_t>(c)];
    const EntityTable& table = world_->table(c);
    if (part.base.size() != S + 1 || part.base[0] != 0 ||
        part.base[S] != table.size() ||
        part.shard_of.size() != table.size()) {
      return false;
    }
    for (size_t s = 0; s < S; ++s) {
      if (part.base[s] > part.base[s + 1]) return false;
      for (RowIdx r = part.base[s]; r < part.base[s + 1]; ++r) {
        if (part.shard_of[r] != s) return false;
      }
    }
    for (RowIdx r = 0; r < table.size(); ++r) {
      const World::Locator* loc = world_->Find(table.id_at(r));
      if (loc == nullptr || loc->cls != c || loc->row != r) return false;
    }
  }
  return true;
}

}  // namespace sgl
