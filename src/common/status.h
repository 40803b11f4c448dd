// Status / StatusOr: exception-free error propagation in the RocksDB style.
//
// All fallible public APIs in SGL (parsing, semantic analysis, compilation,
// engine configuration) return Status or StatusOr<T>. Internal invariant
// violations use SGL_CHECK / SGL_DCHECK instead.

#ifndef SGL_COMMON_STATUS_H_
#define SGL_COMMON_STATUS_H_

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace sgl {

/// Error category for a failed operation.
enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,   ///< Caller passed a value outside the legal domain.
  kNotFound,          ///< Named entity (class, field, script, plan) missing.
  kAlreadyExists,     ///< Duplicate registration (class, component, ...).
  kParseError,        ///< Lexical or syntactic error in SGL source.
  kSemanticError,     ///< Type error or access-rule violation in SGL source.
  kUnsupported,       ///< Feature combination the engine does not implement.
  kInternal,          ///< Invariant breakage that is not the caller's fault.
};

/// Human-readable name for a StatusCode ("OK", "ParseError", ...).
const char* StatusCodeName(StatusCode code);

/// Result of an operation: OK, or an error code plus message.
///
/// Cheap to copy in the OK case (no allocation); error carries a string.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status SemanticError(std::string msg) {
    return Status(StatusCode::kSemanticError, std::move(msg));
  }
  static Status Unsupported(std::string msg) {
    return Status(StatusCode::kUnsupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// A Status or a value of type T. Dereference only when ok().
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT: implicit
  StatusOr(T value)                                        // NOLINT: implicit
      : status_(Status::OK()), value_(std::move(value)) {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& { return *value_; }
  T& value() & { return *value_; }
  T&& value() && { return *std::move(value_); }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace sgl

/// Propagates a non-OK Status to the caller.
#define SGL_RETURN_IF_ERROR(expr)                \
  do {                                           \
    ::sgl::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                   \
  } while (0)

/// Evaluates a StatusOr expression, assigning the value or propagating error.
#define SGL_ASSIGN_OR_RETURN(lhs, expr)          \
  SGL_ASSIGN_OR_RETURN_IMPL_(                    \
      SGL_STATUS_CONCAT_(_sor, __LINE__), lhs, expr)

#define SGL_STATUS_CONCAT_INNER_(a, b) a##b
#define SGL_STATUS_CONCAT_(a, b) SGL_STATUS_CONCAT_INNER_(a, b)
#define SGL_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value()

#endif  // SGL_COMMON_STATUS_H_
