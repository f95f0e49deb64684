// Minimal expected-style result type used across Starfish for recoverable
// errors (protocol parse failures, store misses, representation mismatches).
// Irrecoverable programming errors use assertions instead.
#pragma once

#include <cassert>
#include <string>
#include <utility>
#include <variant>

namespace starfish::util {

/// Error payload: a short machine-readable code plus a human message.
struct Error {
  std::string code;
  std::string message;

  static Error make(std::string code, std::string message) {
    return Error{std::move(code), std::move(message)};
  }
  std::string to_string() const { return code + ": " + message; }
};

/// Result<T> holds either a value or an Error.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : state_(std::move(value)) {}              // NOLINT(google-explicit-constructor)
  Result(Error error) : state_(std::move(error)) {}          // NOLINT(google-explicit-constructor)

  bool ok() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return ok(); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(state_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(state_);
  }
  T&& take() && {
    assert(ok());
    return std::get<T>(std::move(state_));
  }
  const Error& error() const {
    assert(!ok());
    return std::get<Error>(state_);
  }

 private:
  std::variant<T, Error> state_;
};

/// Result<void> analogue.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(Error error) : error_(std::move(error)), failed_(true) {}  // NOLINT(google-explicit-constructor)

  static Status ok_status() { return Status{}; }

  bool ok() const { return !failed_; }
  explicit operator bool() const { return ok(); }
  const Error& error() const {
    assert(failed_);
    return error_;
  }

 private:
  Error error_{};
  bool failed_ = false;
};

}  // namespace starfish::util
