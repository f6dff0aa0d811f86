#pragma once

#include <memory>
#include <string>
#include <utility>

namespace xdb {

/// \brief Error categories used throughout the library.
///
/// Mirrors the Arrow/RocksDB convention of a cheap, movable status object:
/// an OK status carries no allocation; error statuses carry a code and a
/// human-readable message.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument,
  kParseError,
  kBindError,
  kCatalogError,
  kExecutionError,
  kNetworkError,
  kNotImplemented,
  kInternal,
  kUnavailable,  // node/engine temporarily down or refusing the operation
  kTimeout,      // operation gave up mid-flight (e.g. link drop)
};

/// \brief Returns a stable, human-readable name for a status code.
const char* StatusCodeToString(StatusCode code);

/// \brief Operation outcome: OK or (code, message).
///
/// Functions that can fail return Status (or Result<T> when they produce a
/// value). Statuses must be checked; they are cheap to move and copy.
class Status {
 public:
  Status() = default;

  static Status OK() { return Status(); }

  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }
  static Status BindError(std::string msg) {
    return Status(StatusCode::kBindError, std::move(msg));
  }
  static Status CatalogError(std::string msg) {
    return Status(StatusCode::kCatalogError, std::move(msg));
  }
  static Status ExecutionError(std::string msg) {
    return Status(StatusCode::kExecutionError, std::move(msg));
  }
  static Status NetworkError(std::string msg) {
    return Status(StatusCode::kNetworkError, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->msg;
  }

  bool IsParseError() const { return code() == StatusCode::kParseError; }
  bool IsBindError() const { return code() == StatusCode::kBindError; }
  bool IsCatalogError() const { return code() == StatusCode::kCatalogError; }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }
  bool IsTimeout() const { return code() == StatusCode::kTimeout; }

  /// \brief True for transient failure classes (unavailable engine, dropped
  /// link) that a caller may reasonably retry with backoff. Static errors
  /// (parse/bind/catalog/...) are never retryable.
  bool IsRetryable() const {
    return code() == StatusCode::kUnavailable ||
           code() == StatusCode::kTimeout;
  }

  /// \brief Renders "OK" or "<Code>: <message>".
  std::string ToString() const;

  /// \brief Returns a copy of this status with extra context prepended.
  Status WithContext(const std::string& context) const;

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };

  Status(StatusCode code, std::string msg)
      : state_(std::make_shared<State>(State{code, std::move(msg)})) {}

  std::shared_ptr<State> state_;  // nullptr means OK
};

}  // namespace xdb

/// Propagates a non-OK Status from the current function.
#define XDB_RETURN_NOT_OK(expr)            \
  do {                                     \
    ::xdb::Status _st = (expr);            \
    if (!_st.ok()) return _st;             \
  } while (false)
