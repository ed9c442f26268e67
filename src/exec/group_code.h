// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// Building blocks of the vectorized star-join scan:
//
//   KeyIndex        dimension primary key → int32 payload. When the key space
//                   is reasonably dense (range ≤ ~4× the row count) the probe
//                   is a single array index into an offset table; sparse key
//                   spaces fall back to a hash map. The payload is caller-
//                   defined (ScanPlan stores the dimension row; the
//                   contribution index stores it only for rows passing the
//                   query's predicates).
//
//   GroupCodeLayout bit-packing of per-dimension group ordinals into one
//                   uint64 group code per fact row, so GROUP BY aggregation
//                   needs no per-row string materialization. Labels are
//                   rendered once per *group* at the end of the scan.
//
//   GroupAccumulator group code → (sum, row count), backed by a plain vector
//                   when the code space is small and a hash map otherwise.
//                   Partials from parallel workers merge deterministically.

#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/result.h"

namespace dpstarj::exec {

/// \brief Dense-or-hashed lookup from int64 keys to int32 payloads.
class KeyIndex {
 public:
  /// Sentinel returned by Lookup for keys not present in the index. Payloads
  /// must not use this value.
  static constexpr int32_t kAbsent = INT32_MIN;

  /// \brief Builds the index over `keys` (payload[i] belongs to keys[i]).
  /// Duplicate keys are an error (dimension primary keys are unique). The
  /// dense offset-table representation is used when the key range is at most
  /// `kDensityFactor`× the row count (plus slack for tiny tables).
  static Result<KeyIndex> Build(const std::vector<int64_t>& keys,
                                const std::vector<int32_t>& payload);

  /// Payload of `key`, or kAbsent.
  int32_t Lookup(int64_t key) const {
    if (dense_) {
      uint64_t slot = static_cast<uint64_t>(key) - static_cast<uint64_t>(min_key_);
      return slot < slots_.size() ? slots_[slot] : kAbsent;
    }
    auto it = map_.find(key);
    return it == map_.end() ? kAbsent : it->second;
  }

  bool dense() const { return dense_; }

 private:
  static constexpr int64_t kDensityFactor = 4;
  static constexpr int64_t kDensitySlack = 1024;

  /// The dense-vs-hash decision: a dense offset table pays off while the
  /// key range is at most kDensityFactor × the key count, plus slack so tiny
  /// tables always go dense.
  static bool DenseRangeWorthwhile(size_t num_keys, uint64_t range) {
    return range <
           static_cast<uint64_t>(num_keys) * kDensityFactor + kDensitySlack;
  }

  bool dense_ = false;
  int64_t min_key_ = 0;
  std::vector<int32_t> slots_;
  std::unordered_map<int64_t, int32_t> map_;
};

/// \brief Bit layout of packed group codes: field f occupies
/// ceil(log2(cardinality_f)) bits (at least 1).
class GroupCodeLayout {
 public:
  /// Appends a field of `cardinality` distinct ordinals; returns its index.
  int AddField(uint64_t cardinality);

  /// True while all fields fit in 64 bits; Pack/Extract require Fits().
  bool Fits() const { return total_bits_ <= 64; }

  int num_fields() const { return static_cast<int>(shifts_.size()); }

  /// The ordinal contribution of field f, to be OR-ed into the code.
  uint64_t Pack(int f, uint64_t ordinal) const {
    return ordinal << shifts_[static_cast<size_t>(f)];
  }

  /// Recovers field f's ordinal from a packed code.
  uint64_t Extract(uint64_t code, int f) const {
    return (code >> shifts_[static_cast<size_t>(f)]) &
           masks_[static_cast<size_t>(f)];
  }

  /// Largest ordinal field f can represent. Pack() does not mask, so callers
  /// packing ordinals derived from *new* data (incremental plan extension)
  /// must range-check against this before OR-ing into a code.
  uint64_t FieldMask(int f) const { return masks_[static_cast<size_t>(f)]; }

  /// Total number of representable codes (product of rounded-up field
  /// sizes), or nullopt when it does not fit in 63 bits.
  std::optional<uint64_t> CodeSpace() const;

 private:
  std::vector<int> shifts_;
  std::vector<uint64_t> masks_;
  int total_bits_ = 0;
};

/// \brief One group's running aggregate.
struct GroupAgg {
  double sum = 0.0;
  int64_t rows = 0;
};

/// \brief Accumulates (sum, rows) per packed group code.
class GroupAccumulator {
 public:
  /// Hard cap on flat-vector slots (16 MB of GroupAgg at this size).
  static constexpr uint64_t kDenseLimit = 1u << 20;

  /// `code_space` from GroupCodeLayout::CodeSpace(); nullopt forces hashing.
  /// `dense_limit` further bounds the flat-vector backend — callers pass a
  /// value proportional to the rows they will scan, so a worker never
  /// zero-initializes slots vastly outnumbering the codes it can touch.
  explicit GroupAccumulator(std::optional<uint64_t> code_space,
                            uint64_t dense_limit = kDenseLimit);

  void Add(uint64_t code, double w) {
    GroupAgg& agg = dense_ ? slots_[code] : map_[code];
    agg.sum += w;
    agg.rows += 1;
  }

  /// \brief Folds `other` into this accumulator. Call in worker-index order:
  /// group sums are then associated identically on every run with the same
  /// worker count.
  void MergeFrom(const GroupAccumulator& other);

  /// Visits every non-empty group. Dense backends visit in code order;
  /// hashed backends in unspecified (but per-process deterministic) order —
  /// callers sort by rendered label downstream.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (dense_) {
      for (uint64_t c = 0; c < slots_.size(); ++c) {
        if (slots_[c].rows > 0) fn(c, slots_[c]);
      }
    } else {
      for (const auto& [c, agg] : map_) fn(c, agg);
    }
  }

  bool dense() const { return dense_; }

 private:
  bool dense_ = false;
  std::vector<GroupAgg> slots_;
  std::unordered_map<uint64_t, GroupAgg> map_;
};

}  // namespace dpstarj::exec
