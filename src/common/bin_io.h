// Little-endian POD append/read helpers for checkpoint-style blobs.
//
// Every serialized artifact in the engine (World::Serialize, checkpoint
// files, in-flight job submissions, and component state) is a flat byte
// string of trivially-copyable records. These helpers centralize the
// memcpy-based append and the bounds-checked cursor read so every format
// validates truncation the same way instead of hand-rolling pointer
// arithmetic.

#ifndef SGL_COMMON_BIN_IO_H_
#define SGL_COMMON_BIN_IO_H_

#include <cstring>
#include <string>
#include <type_traits>

namespace sgl {
namespace binio {

template <typename T>
inline void Append(std::string* out, const T& v) {
  static_assert(std::is_trivially_copyable<T>::value,
                "binio::Append requires a trivially copyable type");
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

inline void AppendBytes(std::string* out, const void* data, size_t n) {
  out->append(static_cast<const char*>(data), n);
}

/// u64 length prefix + raw bytes.
inline void AppendString(std::string* out, const std::string& s) {
  Append<uint64_t>(out, static_cast<uint64_t>(s.size()));
  out->append(s);
}

/// Bounds-checked read; advances `*cur` on success, leaves it untouched and
/// returns false on truncation.
template <typename T>
inline bool Read(const char** cur, const char* end, T* v) {
  static_assert(std::is_trivially_copyable<T>::value,
                "binio::Read requires a trivially copyable type");
  if (static_cast<size_t>(end - *cur) < sizeof(T)) return false;
  std::memcpy(v, *cur, sizeof(T));
  *cur += sizeof(T);
  return true;
}

inline bool ReadBytes(const char** cur, const char* end, void* dst,
                      size_t n) {
  if (static_cast<size_t>(end - *cur) < n) return false;
  std::memcpy(dst, *cur, n);
  *cur += n;
  return true;
}

inline bool ReadString(const char** cur, const char* end, std::string* s) {
  uint64_t n = 0;
  if (!Read(cur, end, &n)) return false;
  if (static_cast<uint64_t>(end - *cur) < n) return false;
  s->assign(*cur, static_cast<size_t>(n));
  *cur += n;
  return true;
}

}  // namespace binio
}  // namespace sgl

#endif  // SGL_COMMON_BIN_IO_H_
