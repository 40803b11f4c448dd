#include "src/debug/checkpoint_file.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <new>

#if !defined(_WIN32)
#include <unistd.h>
#endif

#include "src/common/alloc_hook.h"
#include "src/common/bin_io.h"
#include "src/fault/fault_injector.h"

namespace sgl {

namespace {

/// One container format (CHECKPOINT_FORMAT.md). Header: u64 magic,
/// u32 version, u32 reserved(0), u64 words[num_words],
/// u64 section_sizes[num_sections], u64 payload_fnv, u64 header_fnv;
/// then the sections back to back.
struct ContainerFormat {
  uint64_t magic;
  uint32_t version;
  size_t num_words;
  size_t num_sections;
  const char* what;    ///< error-message prefix
  const char* prefix;  ///< store file names: <prefix><012 tick><suffix>
  const char* suffix;

  /// The header bytes before header_fnv, which covers exactly these.
  constexpr size_t checksummed_bytes() const {
    return 8 + 4 + 4 + 8 * (num_words + num_sections) + 8;
  }
  constexpr size_t header_bytes() const { return checksummed_bytes() + 8; }
};

/// How an item maps onto its container: the format, the sections in file
/// order, and the header words. Word 0 is the tick in every kind.
template <typename T>
struct Kind;

template <>
struct Kind<Checkpoint> {
  static constexpr ContainerFormat kFormat = {
      0x3154504b434c4753ULL,  // "SGLCKPT1" little-endian
      1, 1, 4, "checkpoint", "ckpt_", ".sgl"};
  static constexpr std::string Checkpoint::*kSections[] = {
      &Checkpoint::state, &Checkpoint::shard_partition, &Checkpoint::jobs,
      &Checkpoint::components};
  static void PackWords(const Checkpoint& cp, uint64_t* w) {
    w[0] = static_cast<uint64_t>(cp.tick);
  }
  static void UnpackWords(const uint64_t* w, Checkpoint* cp) {
    cp->tick = static_cast<Tick>(w[0]);
  }
};

template <>
struct Kind<BlackBoxDump> {
  static constexpr ContainerFormat kFormat = {
      0x31584f42424c4753ULL,  // "SGLBBOX1" little-endian
      1, 2, 5, "blackbox", "bbox_", ".sbb"};
  static constexpr std::string BlackBoxDump::*kSections[] = {
      &BlackBoxDump::reason, &BlackBoxDump::chrome_trace,
      &BlackBoxDump::metrics, &BlackBoxDump::sites,
      &BlackBoxDump::provenance};
  static void PackWords(const BlackBoxDump& dump, uint64_t* w) {
    w[0] = static_cast<uint64_t>(dump.tick);
    w[1] = dump.world_checksum;
  }
  static void UnpackWords(const uint64_t* w, BlackBoxDump* dump) {
    dump->tick = static_cast<Tick>(w[0]);
    dump->world_checksum = w[1];
  }
};

static_assert(Kind<Checkpoint>::kFormat.header_bytes() == 72,
              "checkpoint header is 72 bytes on disk");
static_assert(Kind<BlackBoxDump>::kFormat.header_bytes() == 88,
              "black-box header is 88 bytes on disk");

// --- The section-list codec -------------------------------------------------

/// Builds the complete image. May throw bad_alloc — deliberately, that is
/// the ckpt.serialize.allocfail surface.
void BuildImage(const ContainerFormat& fmt, const uint64_t* words,
                const std::string* const* sections, std::string* out) {
  out->clear();
  size_t payload_bytes = 0;
  uint64_t payload_fnv = Fnv1a(out->data(), 0);  // the FNV offset basis
  for (size_t i = 0; i < fmt.num_sections; ++i) {
    payload_bytes += sections[i]->size();
    payload_fnv =
        Fnv1a(sections[i]->data(), sections[i]->size(), payload_fnv);
  }
  out->reserve(fmt.header_bytes() + payload_bytes);
  binio::Append<uint64_t>(out, fmt.magic);
  binio::Append<uint32_t>(out, fmt.version);
  binio::Append<uint32_t>(out, 0u);
  for (size_t i = 0; i < fmt.num_words; ++i) {
    binio::Append<uint64_t>(out, words[i]);
  }
  for (size_t i = 0; i < fmt.num_sections; ++i) {
    binio::Append<uint64_t>(out, static_cast<uint64_t>(sections[i]->size()));
  }
  binio::Append<uint64_t>(out, payload_fnv);
  binio::Append<uint64_t>(out, Fnv1a(out->data(), out->size()));
  for (size_t i = 0; i < fmt.num_sections; ++i) out->append(*sections[i]);
}

/// Validates `data` in the documented order. `words` is filled as the
/// header is read; `sections` are written only when every check passes.
Status ParseImage(const ContainerFormat& fmt, const std::string& data,
                  const std::string& path, uint64_t* words,
                  std::string* const* sections) {
  const std::string what = fmt.what;
  if (data.size() < fmt.header_bytes()) {
    return Status::InvalidArgument(what + ": truncated header: " + path);
  }
  const char* cur = data.data();
  const char* const end = cur + data.size();
  uint64_t magic = 0, payload_fnv = 0, header_fnv = 0;
  uint32_t version = 0, reserved = 0;
  binio::Read(&cur, end, &magic);
  binio::Read(&cur, end, &version);
  binio::Read(&cur, end, &reserved);
  for (size_t i = 0; i < fmt.num_words; ++i) {
    binio::Read(&cur, end, &words[i]);
  }
  const char* const sizes_at = cur;
  cur += 8 * fmt.num_sections;
  binio::Read(&cur, end, &payload_fnv);
  binio::Read(&cur, end, &header_fnv);
  if (header_fnv != Fnv1a(data.data(), fmt.checksummed_bytes())) {
    return Status::InvalidArgument(what + ": header checksum mismatch: " +
                                   path);
  }
  if (magic != fmt.magic) {
    return Status::InvalidArgument(what + ": bad magic: " + path);
  }
  if (version != fmt.version) {
    return Status::InvalidArgument(what + ": unsupported version " +
                                   std::to_string(version) + ": " + path);
  }
  auto section_size = [sizes_at, end](size_t i) {
    const char* at = sizes_at + 8 * i;
    uint64_t size = 0;
    binio::Read(&at, end, &size);
    return size;
  };
  const uint64_t remaining = static_cast<uint64_t>(end - cur);
  uint64_t total = 0;
  for (size_t i = 0; i < fmt.num_sections; ++i) {
    const uint64_t size = section_size(i);
    if (size > remaining) {
      return Status::InvalidArgument(what + ": truncated payload: " + path);
    }
    total += size;
  }
  if (total != remaining) {
    return Status::InvalidArgument(what + ": payload size mismatch: " +
                                   path);
  }
  if (payload_fnv != Fnv1a(cur, static_cast<size_t>(remaining))) {
    return Status::InvalidArgument(what + ": payload checksum mismatch: " +
                                   path);
  }
  for (size_t i = 0; i < fmt.num_sections; ++i) {
    const size_t size = static_cast<size_t>(section_size(i));
    sections[i]->assign(cur, size);
    cur += size;
  }
  return Status::OK();
}

// --- The atomic writer and the whole-file reader ----------------------------

/// Writes `*image` to `<path>.tmp`, fflush + fsync, then renames onto
/// `path`. With an armed `fault` the ckpt.write.* sites evaluate at `tick`.
/// Corruption faults apply after the checksums are computed, so the bad
/// bytes reach the disk exactly as silent media corruption would.
Status WriteFileAtomic(std::string* image, const std::string& path,
                       Tick tick, const std::string& what,
                       FaultInjector* fault) {
  uint64_t payload = 0;
  if (SGL_FAULT_POINT(fault, kFaultCkptWriteBitflip, tick, 0, &payload)) {
    (*image)[static_cast<size_t>(payload % image->size())] ^=
        static_cast<char>(0x40);
  }
  size_t write_len = image->size();
  if (SGL_FAULT_POINT(fault, kFaultCkptWriteShort, tick, 0, &payload)) {
    write_len = static_cast<size_t>(payload % image->size());
  }

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(what + ": cannot open " + tmp);
  }
  if (write_len > 0 &&
      std::fwrite(image->data(), 1, write_len, f) != write_len) {
    std::fclose(f);
    return Status::Internal(what + ": write failed: " + tmp);
  }
  std::fflush(f);
#if !defined(_WIN32)
  fsync(fileno(f));
#endif
  std::fclose(f);

  if (SGL_FAULT_POINT(fault, kFaultCkptWriteTorn, tick, 0, &payload)) {
    // Crash between the tmp write and the rename: the target keeps its old
    // contents (or stays absent) and an orphan .tmp is left behind —
    // exactly what the atomic protocol promises to survive.
    return Status::Internal(std::string(kFaultCrashPrefix) +
                            " at ckpt.write.torn tick " +
                            std::to_string(tick));
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::Internal(what + ": rename failed: " + ec.message());
  }
  return Status::OK();
}

/// Reads the whole regular file at `path` into `*data`. With an armed
/// `fault` the ckpt.read.bitflip site evaluates at tick 0 with the file
/// size as key.
Status ReadWholeFile(const std::string& path, const std::string& what,
                     FaultInjector* fault, std::string* data) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(what + ": no file at " + path);
  }
  // file_size fails on anything but a regular file. A directory opens
  // fine, and its ftell can be LLONG_MAX, which no buffer can hold.
  std::error_code ec;
  const uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) {
    std::fclose(f);
    return Status::InvalidArgument(what + ": not a regular file: " + path);
  }
  data->resize(static_cast<size_t>(size));
  const bool read_ok =
      data->empty() ||
      std::fread(&(*data)[0], 1, data->size(), f) == data->size();
  std::fclose(f);
  if (!read_ok) {
    return Status::Internal(what + ": read failed: " + path);
  }
  uint64_t payload = 0;
  if (!data->empty() &&
      SGL_FAULT_POINT(fault, kFaultCkptReadBitflip, 0, data->size(),
                      &payload)) {
    (*data)[static_cast<size_t>(payload % data->size())] ^=
        static_cast<char>(0x40);
  }
  return Status::OK();
}

// --- Binding an item to its container ----------------------------------------

template <typename T>
Status SaveContainer(const T& item, const std::string& path,
                     FaultInjector* fault) {
  using K = Kind<T>;
  static_assert(std::size(K::kSections) == K::kFormat.num_sections,
                "one header size per section");
  uint64_t words[K::kFormat.num_words];
  K::PackWords(item, words);
  const std::string* sections[K::kFormat.num_sections];
  for (size_t i = 0; i < K::kFormat.num_sections; ++i) {
    sections[i] = &(item.*K::kSections[i]);
  }
  std::string image;
  uint64_t payload = 0;
  const bool arm_alloc_fail =
      SGL_FAULT_POINT(fault, kFaultCkptSerializeAllocFail, item.tick, 0,
                      &payload) &&
      AllocFailureSupported();
  if (arm_alloc_fail) ArmAllocFailure(static_cast<int64_t>(payload));
  try {
    BuildImage(K::kFormat, words, sections, &image);
  } catch (const std::bad_alloc&) {
    DisarmAllocFailure();
    return Status::Internal(std::string(K::kFormat.what) +
                            ": allocation failure during serialization");
  }
  if (arm_alloc_fail) DisarmAllocFailure();
  return WriteFileAtomic(&image, path, item.tick, K::kFormat.what, fault);
}

template <typename T>
Status LoadContainer(const std::string& path, T* out, FaultInjector* fault) {
  using K = Kind<T>;
  std::string data;
  SGL_RETURN_IF_ERROR(ReadWholeFile(path, K::kFormat.what, fault, &data));
  uint64_t words[K::kFormat.num_words];
  std::string* sections[K::kFormat.num_sections];
  for (size_t i = 0; i < K::kFormat.num_sections; ++i) {
    sections[i] = &(out->*K::kSections[i]);
  }
  SGL_RETURN_IF_ERROR(ParseImage(K::kFormat, data, path, words, sections));
  K::UnpackWords(words, out);
  return Status::OK();
}

}  // namespace

Status SaveCheckpointFile(const Checkpoint& cp, const std::string& path,
                          FaultInjector* fault) {
  return SaveContainer(cp, path, fault);
}

Status LoadCheckpointFile(const std::string& path, Checkpoint* out,
                          FaultInjector* fault) {
  return LoadContainer(path, out, fault);
}

Status SaveBlackBoxFile(const BlackBoxDump& dump, const std::string& path) {
  return SaveContainer(dump, path, nullptr);
}

Status LoadBlackBoxFile(const std::string& path, BlackBoxDump* out) {
  return LoadContainer(path, out, nullptr);
}

// --- The rotating store -------------------------------------------------------

template <typename T>
ContainerStore<T>::ContainerStore(std::string dir, int keep,
                                  FaultInjector* fault)
    : dir_(std::move(dir)), keep_(std::max(keep, 2)), fault_(fault) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
}

template <typename T>
std::vector<std::string> ContainerStore<T>::ListFiles() const {
  const std::string prefix = Kind<T>::kFormat.prefix;
  const std::string suffix = Kind<T>::kFormat.suffix;
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      files.push_back(name);
    }
  }
  // Zero-padded tick in the name makes lexicographic order tick order.
  std::sort(files.begin(), files.end());
  return files;
}

template <typename T>
Status ContainerStore<T>::Save(const T& item) {
  char name[64];
  std::snprintf(name, sizeof(name), "%s%012lld%s", Kind<T>::kFormat.prefix,
                static_cast<long long>(item.tick), Kind<T>::kFormat.suffix);
  SGL_RETURN_IF_ERROR(SaveContainer(item, dir_ + "/" + name, fault_));
  std::vector<std::string> files = ListFiles();
  std::error_code ec;
  for (size_t i = 0; i + static_cast<size_t>(keep_) < files.size(); ++i) {
    std::filesystem::remove(dir_ + "/" + files[i], ec);
  }
  return Status::OK();
}

template <typename T>
StatusOr<T> ContainerStore<T>::LoadLatestGood() const {
  std::vector<std::string> files = ListFiles();
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    T item;
    if (LoadContainer(dir_ + "/" + *it, &item, fault_).ok()) return item;
  }
  return Status::NotFound(std::string(Kind<T>::kFormat.what) +
                          " store: no valid file in " + dir_);
}

template class ContainerStore<Checkpoint>;
template class ContainerStore<BlackBoxDump>;

}  // namespace sgl
