// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Result<T>: a value-or-Status, the exception-free analogue of arrow::Result.

#pragma once

#include <optional>
#include <utility>

#include "common/status.h"

namespace dpstarj {

/// \brief Holds either a value of type T or a non-OK Status.
///
/// Typical use:
/// \code
///   Result<Table> r = LoadCsv(path);
///   if (!r.ok()) return r.status();
///   Table t = std::move(r).ValueOrDie();
/// \endcode
template <typename T>
class Result {
 public:
  using ValueType = T;

  /// Constructs from a value (implicit so `return value;` works).
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  /// Constructs from a non-OK status (implicit so `return st;` works).
  Result(Status status)  // NOLINT(google-explicit-constructor)
      : status_(std::move(status)) {
    DPSTARJ_CHECK(!status_.ok(), "Result constructed from OK status without value");
  }

  /// Returns true iff a value is present.
  bool ok() const noexcept { return value_.has_value(); }

  /// Returns the status (OK when a value is present).
  const Status& status() const noexcept { return status_; }

  /// Returns the value; aborts if not ok(). Use after checking ok().
  const T& ValueOrDie() const& {
    DPSTARJ_CHECK(ok(), status_.message().c_str());
    return *value_;
  }
  T& ValueOrDie() & {
    DPSTARJ_CHECK(ok(), status_.message().c_str());
    return *value_;
  }
  T&& ValueOrDie() && {
    DPSTARJ_CHECK(ok(), status_.message().c_str());
    return std::move(*value_);
  }

  /// Returns the value or `alt` when an error is held.
  T ValueOr(T alt) const& { return ok() ? *value_ : std::move(alt); }

  /// Dereference sugar: `r->field`, `*r` (must be ok()).
  const T& operator*() const& { return ValueOrDie(); }
  T& operator*() & { return ValueOrDie(); }
  const T* operator->() const { return &ValueOrDie(); }
  T* operator->() { return &ValueOrDie(); }

 private:
  Status status_;  // OK iff value_ present.
  std::optional<T> value_;
};

#define DPSTARJ_INTERNAL_CONCAT_IMPL(a, b) a##b
#define DPSTARJ_INTERNAL_CONCAT(a, b) DPSTARJ_INTERNAL_CONCAT_IMPL(a, b)

/// \brief Propagates the error of a Result expression, otherwise assigns the
/// value to `lhs` (which may be a declaration, visible after the macro).
#define DPSTARJ_ASSIGN_OR_RETURN(lhs, expr)                                   \
  auto DPSTARJ_INTERNAL_CONCAT(_dpstarj_res_, __LINE__) = (expr);             \
  if (!DPSTARJ_INTERNAL_CONCAT(_dpstarj_res_, __LINE__).ok()) {               \
    return DPSTARJ_INTERNAL_CONCAT(_dpstarj_res_, __LINE__).status();         \
  }                                                                           \
  lhs = std::move(DPSTARJ_INTERNAL_CONCAT(_dpstarj_res_, __LINE__)).ValueOrDie()

}  // namespace dpstarj
