// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// A minimal, dependency-free JSON value type with a strict pull reader and a
// deterministic serializer — just enough for the wire protocol of the HTTP
// front door (src/net/service_api.h). Objects preserve insertion order so
// responses serialize the way the handlers built them; numbers are doubles
// (all the protocol carries is ε, counters and noisy aggregates). JsonReader
// is the only JSON grammar: Json::Parse builds its DOM with it, and the
// /v1/ingest decoder reads rows with it straight into cells.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace dpstarj::net {

class JsonReader;

/// \brief One JSON value: null, bool, number, string, array or object.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Constructs null.
  Json() = default;

  /// \name Factories, one per JSON type.
  /// @{
  static Json Null() { return Json(); }
  static Json Bool(bool b);
  static Json Number(double v);
  static Json Str(std::string s);
  static Json Array();
  static Json Object();
  /// @}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Value accessors; each aborts unless the type matches.
  bool AsBool() const;
  double AsNumber() const;
  const std::string& AsString() const;

  /// Array elements (empty unless is_array()).
  const std::vector<Json>& items() const { return items_; }
  /// Object members in insertion order (empty unless is_object()).
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  /// Appends to an array (aborts unless is_array()).
  void Append(Json v);
  /// Sets an object member, replacing an existing key (aborts unless
  /// is_object()).
  void Set(const std::string& key, Json v);

  /// Object member lookup; nullptr when absent or not an object.
  const Json* Find(std::string_view key) const;

  /// \name Typed object-member lookups for protocol decoding: value of `key`
  /// when present with the right type, otherwise the Status explains what is
  /// missing or mistyped.
  /// @{
  Result<std::string> GetString(std::string_view key) const;
  Result<double> GetNumber(std::string_view key) const;
  /// @}

  /// Compact serialization (no whitespace). Strings escape control
  /// characters, quotes and backslashes; non-finite numbers render as null
  /// (JSON has no NaN/Inf).
  std::string Dump() const;

  /// \brief Strict parse of one JSON document in JsonReader's dialect.
  static Result<Json> Parse(std::string_view text);

 private:
  /// Builds the DOM of the value at `r`'s cursor.
  static Json Read(JsonReader* r);

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// \brief A strict pull reader over one JSON document: a cursor with a sticky
/// first error, so a decoder walks the document and checks status() once.
///
/// Read each value with one Peek() and then the read it announced (or
/// Skip()); after an error every read is a no-op that returns a neutral
/// value. Errors read "json: <what> at offset N". The dialect: at most 64
/// containers around a value, no raw control characters in strings, and a
/// number is the longest `-?digits(.digits)?([eE][+-]?digits)?` token that
/// strtod accepts whole ("01", "1." and "-.5" pass, ".5" does not), read as
/// the nearest double (±inf or 0 past the double range).
///
///   JsonReader r(text);
///   if (r.Peek() == Json::Type::kArray) {
///     r.BeginArray();
///     while (r.NextItem()) r.Skip();
///   }
///   if (!r.End()) return r.status();
class JsonReader {
 public:
  /// `text` must outlive the reader.
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Type of the next value; kNull also after an error. Checks the nesting
  /// depth, skips whitespace and validates the literals true/false/null.
  Json::Type Peek();

  /// \name Container steps. After BeginObject, each NextKey reads a key and
  /// its ':' (then read the member's value); after BeginArray, each NextItem
  /// moves to the next element. Both return false at the closing bracket,
  /// which they consume, and on an error. A null `key` skips the key.
  /// @{
  void BeginObject();
  bool NextKey(std::string* key);
  void BeginArray();
  bool NextItem();
  /// @}

  /// \name Scalar reads. A null `out` validates the string without copying.
  /// @{
  void String(std::string* out);
  double Number();
  bool Bool();
  void Null();
  /// @}

  /// Validates and skips one value.
  void Skip();
  /// Requires that only whitespace remains; returns ok().
  bool End();

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

 private:
  bool Expect(Json::Type type);
  /// Opens the container Peek() announced.
  void Enter(Json::Type type);
  /// Moves past the ',' between elements; false at `close` (consumed).
  bool Step(char close, const char* expected);
  bool Consume(char c);
  void Fail(const std::string& what);
  void SkipWhitespace();
  void ReadString(std::string* out);

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  // Set by Begin*, cleared by the first NextKey/NextItem that follows it:
  // nothing else can run in between, so one flag serves every level.
  bool first_ = false;
  Status status_;
};

/// Escapes `s` for inclusion in a JSON string literal (no surrounding quotes).
std::string JsonEscape(std::string_view s);

}  // namespace dpstarj::net
