// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Finite ordered attribute domains. The Predicate Mechanism's sensitivity for
// a predicate on attribute a_i is |dom(a_i)| (paper §5.2), so every dimension
// attribute that may carry a filter predicate declares its domain here.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/value.h"

namespace dpstarj::storage {

/// \brief A finite, totally ordered value domain for a dimension attribute.
///
/// Two kinds:
///  * integer range [lo, hi] — e.g. Date.year ∈ [1992, 1998] (size 7);
///  * categorical — an explicit ordered list of strings, e.g. the five SSB
///    regions. Order is the declaration order; PMA's Laplace shifts move
///    along this order.
///
/// Copies share a categorical domain's values (immutable once built), so
/// binding a predicate, perturbing it and memoizing its ordinal table copy
/// no strings, and comparing two copies is a pointer test.
class AttributeDomain {
 public:
  AttributeDomain() = default;

  /// Integer domain {lo, lo+1, ..., hi}.
  static AttributeDomain IntRange(int64_t lo, int64_t hi);

  /// Categorical domain with the given ordered values (must be non-empty and
  /// duplicate-free; checked).
  static AttributeDomain Categorical(std::vector<std::string> values);

  /// True for categorical domains.
  bool is_categorical() const { return categorical_; }

  /// Domain size m_i = |dom(a_i)|.
  int64_t size() const;

  /// Lower / upper bound of an integer domain.
  int64_t int_lo() const { return lo_; }
  int64_t int_hi() const { return hi_; }

  /// Values of a categorical domain, in order (empty for an integer one).
  const std::vector<std::string>& categories() const;

  /// \brief Maps a value to its ordinal position in [0, size()).
  /// Fails with NotFound when the value is outside the domain.
  Result<int64_t> IndexOf(const Value& v) const;

  /// Maps an ordinal position back to the domain value (index clamped by
  /// caller; out-of-range aborts).
  Value ValueAt(int64_t index) const;

  /// Debug rendering, e.g. "int[1992,1998]" or "cat{5}".
  std::string ToString() const;

  /// Equal kind, bounds and values; copies of one domain compare by their
  /// shared storage without reading the values.
  bool operator==(const AttributeDomain& o) const {
    return categorical_ == o.categorical_ && lo_ == o.lo_ && hi_ == o.hi_ &&
           (categories_ == o.categories_ ||
            (categories_ != nullptr && o.categories_ != nullptr &&
             *categories_ == *o.categories_));
  }

 private:
  bool categorical_ = false;
  int64_t lo_ = 0;
  int64_t hi_ = -1;  // empty by default
  /// Null for an integer domain.
  std::shared_ptr<const std::vector<std::string>> categories_;
};

}  // namespace dpstarj::storage
