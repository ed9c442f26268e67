// Copyright (c) dpstarj authors. Licensed under the MIT license.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/column.h"
#include "storage/schema.h"

namespace dpstarj::storage {

/// \brief A named, append-only columnar table.
///
/// Tables are created from a Schema; columns are materialized eagerly. The
/// primary key (if any) is a single column designated at construction — star
/// schemas join fact foreign keys against dimension primary keys.
class Table {
 public:
  /// Creates an empty table. `primary_key` names a column of the schema or is
  /// empty for key-less tables (e.g. the fact table).
  static Result<std::shared_ptr<Table>> Create(std::string name, Schema schema,
                                               std::string primary_key = "");

  /// Table name (unique within a Catalog).
  const std::string& name() const { return name_; }
  /// The schema.
  const Schema& schema() const { return schema_; }
  /// Number of rows.
  int64_t num_rows() const { return num_rows_; }
  /// Primary key column name ("" if none).
  const std::string& primary_key() const { return primary_key_; }
  /// Primary key column index (-1 if none).
  int primary_key_index() const { return pk_index_; }

  /// \brief Monotonically increasing mutation epoch, starting at 0.
  ///
  /// The service's ingest path bumps it once per accepted append batch and
  /// folds it into answer-cache keys, so a noisy answer drawn before an
  /// append is never replayed after it (each epoch is a fresh DP release;
  /// see docs/wire-protocol.md). The counter is atomic so unlocked readers
  /// (cache-key construction on the budget-probe path) see a coherent value;
  /// the row data itself is only safe to scan under the service's per-table
  /// reader lock.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }
  /// Advances the epoch. Called by writers after the rows are in place.
  void BumpVersion() { version_.fetch_add(1, std::memory_order_acq_rel); }

  /// \brief Checks `values` against the schema (arity; types, with int64 ↔
  /// double coercion allowed; finite doubles) without mutating anything —
  /// the validation half of AppendRow, exposed so batch writers (streaming
  /// ingest) can pre-validate a whole batch outside the write lock and then
  /// apply it all-or-nothing.
  Status ValidateRow(const std::vector<Value>& values) const;

  /// \brief Appends one row; `values` must match the schema arity and types.
  Status AppendRow(const std::vector<Value>& values);

  /// Column by position.
  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  /// Mutable column by position (for bulk generators).
  Column* mutable_column(int i) { return &columns_[static_cast<size_t>(i)]; }

  /// Column by name.
  Result<const Column*> ColumnByName(const std::string& name) const;
  /// Mutable column by name.
  Result<Column*> MutableColumnByName(const std::string& name);

  /// \brief Declares that `count` rows were appended directly through the
  /// column interfaces; verifies all columns have that length.
  Status FinishBulkAppend(int64_t count);

  /// Reserves capacity in every column.
  void Reserve(int64_t n);

  /// One row as Values (slow path, for tests/IO).
  std::vector<Value> GetRow(int64_t row) const;

 private:
  Table(std::string name, Schema schema, std::string primary_key, int pk_index);

  std::string name_;
  Schema schema_;
  std::string primary_key_;
  int pk_index_ = -1;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
  std::atomic<uint64_t> version_{0};
};

}  // namespace dpstarj::storage
