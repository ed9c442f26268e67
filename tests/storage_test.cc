// Unit tests for the columnar storage engine.

#include <gtest/gtest.h>

#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/domain.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace dpstarj::storage {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  Value i(int64_t{42});
  Value d(3.5);
  Value s("hello");
  EXPECT_TRUE(i.is_int64());
  EXPECT_TRUE(d.is_double());
  EXPECT_TRUE(s.is_string());
  EXPECT_EQ(i.AsInt64(), 42);
  EXPECT_DOUBLE_EQ(d.AsDouble(), 3.5);
  EXPECT_EQ(s.AsString(), "hello");
  EXPECT_DOUBLE_EQ(i.ToNumeric(), 42.0);
  EXPECT_DOUBLE_EQ(s.ToNumeric(), 0.0);
  EXPECT_EQ(i.ToString(), "42");
  EXPECT_EQ(s.ToString(), "hello");
}

TEST(DictionaryTest, InternAndLookup) {
  Dictionary dict;
  EXPECT_EQ(dict.GetOrInsert("a"), 0);
  EXPECT_EQ(dict.GetOrInsert("b"), 1);
  EXPECT_EQ(dict.GetOrInsert("a"), 0);
  EXPECT_EQ(dict.size(), 2);
  EXPECT_EQ(dict.Find("b"), 1);
  EXPECT_EQ(dict.Find("zzz"), -1);
  EXPECT_EQ(dict.At(1), "b");
}

TEST(ColumnTest, Int64Appends) {
  Column c(ValueType::kInt64);
  c.AppendInt64(5);
  ASSERT_TRUE(c.Append(Value(int64_t{6})).ok());
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.GetInt64(0), 5);
  EXPECT_EQ(c.GetInt64(1), 6);
  EXPECT_DOUBLE_EQ(c.GetNumeric(1), 6.0);
}

TEST(ColumnTest, StringDictionaryEncoding) {
  Column c(ValueType::kString);
  int32_t code_a = c.AppendString("ASIA");
  int32_t code_b = c.AppendString("EUROPE");
  int32_t code_a2 = c.AppendString("ASIA");
  EXPECT_EQ(code_a, code_a2);
  EXPECT_NE(code_a, code_b);
  EXPECT_EQ(c.size(), 3);
  EXPECT_EQ(c.GetString(2), "ASIA");
  EXPECT_EQ(c.GetStringCode(0), c.GetStringCode(2));
}

TEST(ColumnTest, SharedDictionary) {
  auto dict = std::make_shared<Dictionary>();
  Column a(ValueType::kString, dict);
  Column b(ValueType::kString, dict);
  a.AppendString("x");
  b.AppendString("x");
  EXPECT_EQ(a.GetStringCode(0), b.GetStringCode(0));
}

TEST(ColumnTest, TypeMismatchIsError) {
  Column c(ValueType::kInt64);
  EXPECT_FALSE(c.Append(Value("oops")).ok());
  Column s(ValueType::kString);
  EXPECT_FALSE(s.Append(Value(int64_t{1})).ok());
}

TEST(ColumnTest, NumericCoercionIntDouble) {
  Column c(ValueType::kDouble);
  ASSERT_TRUE(c.Append(Value(int64_t{3})).ok());
  EXPECT_DOUBLE_EQ(c.GetDouble(0), 3.0);
}

TEST(SchemaTest, FieldLookup) {
  Schema s({Field("a", ValueType::kInt64), Field("b", ValueType::kString)});
  EXPECT_EQ(s.num_fields(), 2);
  EXPECT_EQ(*s.FieldIndex("b"), 1);
  EXPECT_FALSE(s.FieldIndex("zzz").ok());
  EXPECT_TRUE(s.HasField("a"));
  EXPECT_FALSE(s.AddField(Field("a", ValueType::kDouble)).ok());
  EXPECT_EQ(s.ToString(), "a:int64, b:string");
}

TEST(DomainTest, IntRange) {
  AttributeDomain d = AttributeDomain::IntRange(1992, 1998);
  EXPECT_FALSE(d.is_categorical());
  EXPECT_EQ(d.size(), 7);
  EXPECT_EQ(*d.IndexOf(Value(int64_t{1992})), 0);
  EXPECT_EQ(*d.IndexOf(Value(int64_t{1998})), 6);
  EXPECT_FALSE(d.IndexOf(Value(int64_t{1999})).ok());
  EXPECT_FALSE(d.IndexOf(Value("1993")).ok());
  EXPECT_EQ(d.ValueAt(3).AsInt64(), 1995);
}

TEST(DomainTest, Categorical) {
  AttributeDomain d = AttributeDomain::Categorical({"A", "B", "C"});
  EXPECT_TRUE(d.is_categorical());
  EXPECT_EQ(d.size(), 3);
  EXPECT_EQ(*d.IndexOf(Value("B")), 1);
  EXPECT_FALSE(d.IndexOf(Value("Z")).ok());
  EXPECT_FALSE(d.IndexOf(Value(int64_t{1})).ok());
  EXPECT_EQ(d.ValueAt(2).AsString(), "C");
}

// Copies share a categorical domain's values, and equality compares values,
// not storage: two domains built alike are equal, a reordering is not.
TEST(DomainTest, CategoricalCopiesShareTheirValues) {
  const AttributeDomain d = AttributeDomain::Categorical({"A", "B", "C"});
  const AttributeDomain copy = d;
  EXPECT_EQ(copy.categories().data(), d.categories().data());
  EXPECT_EQ(copy, d);

  const AttributeDomain twin = AttributeDomain::Categorical({"A", "B", "C"});
  EXPECT_NE(twin.categories().data(), d.categories().data());
  EXPECT_EQ(twin, d);

  const AttributeDomain reordered =
      AttributeDomain::Categorical({"B", "A", "C"});
  EXPECT_EQ(reordered.ToString(), d.ToString());  // both read cat{3}
  EXPECT_FALSE(reordered == d);
  EXPECT_FALSE(AttributeDomain::IntRange(0, 2) == d);
  EXPECT_TRUE(AttributeDomain::IntRange(0, 2).categories().empty());
}

TEST(TableTest, CreateAndAppend) {
  Schema schema({Field("k", ValueType::kInt64), Field("name", ValueType::kString)});
  auto t = Table::Create("T", schema, "k");
  ASSERT_TRUE(t.ok());
  auto table = *t;
  EXPECT_EQ(table->primary_key(), "k");
  EXPECT_EQ(table->primary_key_index(), 0);
  ASSERT_TRUE(table->AppendRow({Value(int64_t{1}), Value("one")}).ok());
  ASSERT_TRUE(table->AppendRow({Value(int64_t{2}), Value("two")}).ok());
  EXPECT_EQ(table->num_rows(), 2);
  EXPECT_EQ(table->column(1).GetString(1), "two");
  auto row = table->GetRow(0);
  EXPECT_EQ(row[0].AsInt64(), 1);
  EXPECT_EQ(row[1].AsString(), "one");
}

TEST(TableTest, AppendValidationLeavesTableUnchanged) {
  Schema schema({Field("k", ValueType::kInt64), Field("v", ValueType::kDouble)});
  auto table = *Table::Create("T", schema);
  // Second cell has the wrong type; nothing must be appended.
  EXPECT_FALSE(table->AppendRow({Value(int64_t{1}), Value("bad")}).ok());
  EXPECT_EQ(table->num_rows(), 0);
  EXPECT_EQ(table->column(0).size(), 0);
  EXPECT_FALSE(table->AppendRow({Value(int64_t{1})}).ok());  // arity
}

TEST(TableTest, BadPrimaryKeyRejected) {
  Schema schema({Field("k", ValueType::kInt64)});
  EXPECT_FALSE(Table::Create("T", schema, "nope").ok());
  EXPECT_FALSE(Table::Create("", schema).ok());
}

TEST(TableTest, ColumnByName) {
  Schema schema({Field("a", ValueType::kInt64), Field("b", ValueType::kInt64)});
  auto table = *Table::Create("T", schema);
  ASSERT_TRUE(table->AppendRow({Value(int64_t{1}), Value(int64_t{2})}).ok());
  auto col = table->ColumnByName("b");
  ASSERT_TRUE(col.ok());
  EXPECT_EQ((*col)->GetInt64(0), 2);
  EXPECT_FALSE(table->ColumnByName("zzz").ok());
}

TEST(TableTest, BulkAppendChecksLengths) {
  Schema schema({Field("a", ValueType::kInt64), Field("b", ValueType::kInt64)});
  auto table = *Table::Create("T", schema);
  table->mutable_column(0)->AppendInt64(1);
  // Column b left short: FinishBulkAppend must fail.
  EXPECT_FALSE(table->FinishBulkAppend(1).ok());
  table->mutable_column(1)->AppendInt64(2);
  EXPECT_TRUE(table->FinishBulkAppend(1).ok());
  EXPECT_EQ(table->num_rows(), 1);
}

}  // namespace
}  // namespace dpstarj::storage
