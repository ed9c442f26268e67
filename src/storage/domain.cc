#include "storage/domain.h"

#include <unordered_set>

#include "common/string_util.h"

namespace dpstarj::storage {

AttributeDomain AttributeDomain::IntRange(int64_t lo, int64_t hi) {
  DPSTARJ_CHECK(lo <= hi, "IntRange requires lo <= hi");
  AttributeDomain d;
  d.categorical_ = false;
  d.lo_ = lo;
  d.hi_ = hi;
  return d;
}

AttributeDomain AttributeDomain::Categorical(std::vector<std::string> values) {
  DPSTARJ_CHECK(!values.empty(), "Categorical domain must be non-empty");
  std::unordered_set<std::string> seen;
  for (const auto& v : values) {
    DPSTARJ_CHECK(seen.insert(v).second, "Categorical domain has duplicate value");
  }
  AttributeDomain d;
  d.categorical_ = true;
  d.categories_ =
      std::make_shared<const std::vector<std::string>>(std::move(values));
  return d;
}

const std::vector<std::string>& AttributeDomain::categories() const {
  static const std::vector<std::string> kNone;
  return categories_ != nullptr ? *categories_ : kNone;
}

int64_t AttributeDomain::size() const {
  if (categorical_) return static_cast<int64_t>(categories_->size());
  return hi_ - lo_ + 1;
}

Result<int64_t> AttributeDomain::IndexOf(const Value& v) const {
  if (categorical_) {
    if (!v.is_string()) {
      return Status::InvalidArgument("categorical domain expects a string value");
    }
    const std::vector<std::string>& cats = *categories_;
    for (size_t i = 0; i < cats.size(); ++i) {
      if (cats[i] == v.AsString()) return static_cast<int64_t>(i);
    }
    return Status::NotFound(Format("value '%s' not in domain", v.AsString().c_str()));
  }
  if (!v.is_int64()) {
    return Status::InvalidArgument("integer domain expects an int64 value");
  }
  int64_t x = v.AsInt64();
  if (x < lo_ || x > hi_) {
    return Status::NotFound(Format("value %lld outside [%lld, %lld]",
                                   static_cast<long long>(x),
                                   static_cast<long long>(lo_),
                                   static_cast<long long>(hi_)));
  }
  return x - lo_;
}

Value AttributeDomain::ValueAt(int64_t index) const {
  DPSTARJ_CHECK(index >= 0 && index < size(), "domain index out of range");
  if (categorical_) return Value((*categories_)[static_cast<size_t>(index)]);
  return Value(lo_ + index);
}

std::string AttributeDomain::ToString() const {
  if (categorical_) return Format("cat{%lld}", static_cast<long long>(size()));
  return Format("int[%lld,%lld]", static_cast<long long>(lo_),
                static_cast<long long>(hi_));
}

}  // namespace dpstarj::storage
