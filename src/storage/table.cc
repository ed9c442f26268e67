#include "storage/table.h"

#include <cmath>

#include "common/string_util.h"

namespace dpstarj::storage {

Table::Table(std::string name, Schema schema, std::string primary_key, int pk_index)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      primary_key_(std::move(primary_key)),
      pk_index_(pk_index) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (int i = 0; i < schema_.num_fields(); ++i) {
    columns_.emplace_back(schema_.field(i).type);
  }
}

Result<std::shared_ptr<Table>> Table::Create(std::string name, Schema schema,
                                             std::string primary_key) {
  if (name.empty()) return Status::InvalidArgument("table name must be non-empty");
  int pk_index = -1;
  if (!primary_key.empty()) {
    auto idx = schema.FieldIndex(primary_key);
    if (!idx.ok()) {
      return Status::InvalidArgument(
          Format("primary key '%s' is not a column of '%s'", primary_key.c_str(),
                 name.c_str()));
    }
    pk_index = *idx;
  }
  return std::shared_ptr<Table>(
      new Table(std::move(name), std::move(schema), std::move(primary_key), pk_index));
}

Status Table::ValidateRow(const std::vector<Value>& values) const {
  if (static_cast<int>(values.size()) != schema_.num_fields()) {
    return Status::InvalidArgument(
        Format("row arity %zu != schema arity %d", values.size(),
               schema_.num_fields()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    ValueType ct = columns_[i].type();
    ValueType vt = values[i].type();
    bool ok = (ct == vt) || (ct == ValueType::kDouble && vt == ValueType::kInt64);
    if (ct == ValueType::kInt64 && vt == ValueType::kDouble) {
      // Tolerate doubles in integer columns only when the narrowing cast in
      // Column::Append is exact: a fractional value would be silently
      // truncated, and one outside int64 range makes the cast undefined.
      double d = values[i].AsDouble();
      ok = std::floor(d) == d && d >= -9223372036854775808.0 &&
           d < 9223372036854775808.0;
    }
    if (!ok) {
      return Status::InvalidArgument(
          Format("column %zu of '%s' expects %s, got %s", i, name_.c_str(),
                 ValueTypeToString(ct), ValueTypeToString(vt)));
    }
    // One ±inf or NaN measure would turn every SUM over its rows into a
    // non-finite answer for good: rows are never deleted.
    if (vt == ValueType::kDouble && !std::isfinite(values[i].AsDouble())) {
      return Status::InvalidArgument(
          Format("column %zu ('%s') of '%s' must be finite, got %g", i,
                 schema_.field(static_cast<int>(i)).name.c_str(), name_.c_str(),
                 values[i].AsDouble()));
    }
  }
  return Status::OK();
}

Status Table::AppendRow(const std::vector<Value>& values) {
  // Validate all cells before mutating anything, so a failed append leaves the
  // table unchanged.
  Status valid = ValidateRow(values);
  if (!valid.ok()) return valid;
  for (size_t i = 0; i < values.size(); ++i) {
    Status st = columns_[i].Append(values[i]);
    DPSTARJ_CHECK(st.ok(), "validated append must not fail");
  }
  ++num_rows_;
  return Status::OK();
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  DPSTARJ_ASSIGN_OR_RETURN(int idx, schema_.FieldIndex(name));
  return &columns_[static_cast<size_t>(idx)];
}

Result<Column*> Table::MutableColumnByName(const std::string& name) {
  DPSTARJ_ASSIGN_OR_RETURN(int idx, schema_.FieldIndex(name));
  return &columns_[static_cast<size_t>(idx)];
}

Status Table::FinishBulkAppend(int64_t count) {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].size() != count) {
      return Status::Internal(
          Format("bulk append mismatch in '%s' column %zu: %lld rows, expected %lld",
                 name_.c_str(), i, static_cast<long long>(columns_[i].size()),
                 static_cast<long long>(count)));
    }
  }
  num_rows_ = count;
  return Status::OK();
}

void Table::Reserve(int64_t n) {
  for (auto& c : columns_) c.Reserve(n);
}

std::vector<Value> Table::GetRow(int64_t row) const {
  DPSTARJ_CHECK(row >= 0 && row < num_rows_, "row index out of range");
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& c : columns_) out.push_back(c.GetValue(row));
  return out;
}

}  // namespace dpstarj::storage
