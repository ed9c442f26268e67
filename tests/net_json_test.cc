// Tests for the minimal JSON codec of the HTTP front door: strict parsing,
// escaping, round trips, and the typed field accessors the protocol decoders
// rely on; then a differential mutation harness that holds JsonReader, through
// Json::Parse and DecodeIngestBody, to the recursive-descent parser and the
// DOM ingest walk it replaced, kept below as reference oracles.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "net/json.h"
#include "net/service_api.h"

namespace dpstarj::net {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Json::Parse("null")->is_null());
  EXPECT_TRUE(Json::Parse("true")->AsBool());
  EXPECT_FALSE(Json::Parse("false")->AsBool());
  EXPECT_DOUBLE_EQ(Json::Parse("42")->AsNumber(), 42.0);
  EXPECT_DOUBLE_EQ(Json::Parse("-3.5e2")->AsNumber(), -350.0);
  EXPECT_EQ(Json::Parse("\"hi\"")->AsString(), "hi");
  EXPECT_DOUBLE_EQ(Json::Parse("  0.25  ")->AsNumber(), 0.25);
}

TEST(JsonTest, ParsesNested) {
  auto r = Json::Parse(
      "{\"sql\": \"SELECT count(*)\", \"epsilon\": 0.5,"
      " \"tags\": [1, 2, 3], \"opts\": {\"deep\": true}}");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(*r->GetString("sql"), "SELECT count(*)");
  EXPECT_DOUBLE_EQ(*r->GetNumber("epsilon"), 0.5);
  ASSERT_NE(r->Find("tags"), nullptr);
  ASSERT_EQ(r->Find("tags")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(r->Find("tags")->items()[1].AsNumber(), 2.0);
  EXPECT_TRUE(r->Find("opts")->Find("deep")->AsBool());
}

TEST(JsonTest, StringEscapes) {
  auto r = Json::Parse(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->AsString(), "a\"b\\c\nd\teA");

  // Dump escapes what Parse unescapes: round trip through the wire form.
  Json s = Json::Str("line1\nline2\t\"quoted\" \\slash");
  auto back = Json::Parse(s.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->AsString(), s.AsString());
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("{\"a\":}").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("1 2").ok());        // trailing garbage
  EXPECT_FALSE(Json::Parse("{} []").ok());      // trailing garbage
  EXPECT_FALSE(Json::Parse("\"a\tb\"").ok());   // raw control char
  EXPECT_EQ(Json::Parse("\"a\tb\"").status().message(),
            "json: unescaped control character in string at offset 3");
  EXPECT_FALSE(Json::Parse("{'a': 1}").ok());   // single quotes
  EXPECT_EQ(Json::Parse("{").status().code(), StatusCode::kParseError);
}

TEST(JsonTest, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(Json::Parse(deep).ok());
}

TEST(JsonTest, DumpRoundTripsNumbers) {
  // Integral numbers (counters, COUNT answers) stay integral on the wire.
  EXPECT_EQ(Json::Number(1716).Dump(), "1716");
  EXPECT_EQ(Json::Number(-3).Dump(), "-3");
  EXPECT_EQ(Json::Number(0).Dump(), "0");
  // Non-finite is not representable: encoded as null, never "nan".
  EXPECT_EQ(Json::Number(std::nan("")).Dump(), "null");
  // Fractional values survive a round trip exactly.
  double v = 0.1234567890123456789;
  auto r = Json::Parse(Json::Number(v).Dump());
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->AsNumber(), v);
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndSetReplaces) {
  Json obj = Json::Object();
  obj.Set("b", Json::Number(1));
  obj.Set("a", Json::Number(2));
  obj.Set("b", Json::Number(3));  // replaces, keeps position
  EXPECT_EQ(obj.Dump(), "{\"b\":3,\"a\":2}");
}

TEST(JsonTest, TypedAccessorsExplainFailures) {
  auto obj = Json::Parse("{\"epsilon\": \"not-a-number\"}");
  ASSERT_TRUE(obj.ok());
  auto num = obj->GetNumber("epsilon");
  EXPECT_FALSE(num.ok());
  EXPECT_EQ(num.status().code(), StatusCode::kInvalidArgument);
  auto missing = obj->GetString("sql");
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("sql"), std::string::npos);
}

TEST(JsonTest, RepeatedKeysKeepTheLastValue) {
  auto r = Json::Parse(R"({"a": 1, "b": 2, "a": [3]})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->Dump(), R"({"a":[3],"b":2})");

  std::string table;
  std::vector<std::vector<storage::Value>> rows;
  Status st = DecodeIngestBody(
      R"({"table": "A", "rows": [[1]], "x": {"rows": 5},)"
      R"( "table": "B", "rows": [[2, "s"]]})",
      &table, &rows);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(table, "B");
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0].size(), 2u);
  EXPECT_EQ(rows[0][0], storage::Value(int64_t{2}));
  EXPECT_EQ(rows[0][1], storage::Value("s"));
}

TEST(JsonTest, NestingLimitIsSixtyFourContainers) {
  auto nested = [](int depth, const std::string& inner) {
    return std::string(static_cast<size_t>(depth), '[') + inner +
           std::string(static_cast<size_t>(depth), ']');
  };
  EXPECT_TRUE(Json::Parse(nested(64, "1")).ok());
  EXPECT_TRUE(Json::Parse(nested(65, "")).ok());  // the 65th holds no value
  // The depth is checked before whitespace, so the offset is just past the
  // ':' (or ','), not at the value.
  auto too_deep = Json::Parse(nested(64, R"({"k": 1})"));
  ASSERT_FALSE(too_deep.ok());
  EXPECT_EQ(too_deep.status().message(), "json: nesting too deep at offset 69");
  // Object keys are not values: the 65th object's key passes, and its
  // member's value fails just past the ':'.
  std::string objects;
  for (int i = 0; i < 65; ++i) objects += R"({"k":)";
  EXPECT_TRUE(Json::Parse(objects.substr(5) + "1" + std::string(64, '}')).ok());
  EXPECT_EQ(Json::Parse(objects + "1" + std::string(65, '}')).status().message(),
            "json: nesting too deep at offset 325");
}

TEST(JsonTest, NumbersReadAsTheNearestDouble) {
  EXPECT_EQ(Json::Parse("1e400")->AsNumber(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(Json::Parse("-1e400")->AsNumber(),
            -std::numeric_limits<double>::infinity());
  EXPECT_EQ(Json::Parse("-1e-400")->AsNumber(), 0.0);
  EXPECT_TRUE(std::signbit(Json::Parse("-1e-400")->AsNumber()));
  EXPECT_EQ(Json::Parse("4.9e-324")->AsNumber(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(Json::Parse("9007199254740993")->AsNumber(), 9007199254740992.0);
  // The lenient forms strtod accepts stay accepted; ".5" never starts a
  // number.
  EXPECT_EQ(Json::Parse("01")->AsNumber(), 1.0);
  EXPECT_EQ(Json::Parse("1.")->AsNumber(), 1.0);
  EXPECT_EQ(Json::Parse("-.5")->AsNumber(), -0.5);
  EXPECT_EQ(Json::Parse(".5").status().message(),
            "json: unexpected character '.' at offset 0");
  EXPECT_EQ(Json::Parse("[1e+]").status().message(),
            "json: invalid number '1e+' at offset 4");
}

TEST(JsonTest, IngestBodyErrorsComeInDocumentOrder) {
  std::string table;
  std::vector<std::vector<storage::Value>> rows;
  auto error = [&](std::string_view body) {
    return DecodeIngestBody(body, &table, &rows).message();
  };
  // A syntax error anywhere outranks every field error.
  EXPECT_EQ(error(R"({"table": 7, "rows": [[true]]} x)"),
            "json: trailing characters after JSON document at offset 31");
  EXPECT_EQ(error("[]"), "body must be a JSON object");
  EXPECT_EQ(error(R"({"rows": [[true]]})"), "missing field 'table'");
  EXPECT_EQ(error(R"({"table": null, "rows": 1})"),
            "field 'table' must be a string");
  EXPECT_EQ(error(R"({"table": "T", "rows": {}})"),
            "'rows' must be a non-empty array of rows");
  EXPECT_EQ(error(R"({"table": "T", "rows": [[1, null], 2]})"),
            "ingest cells must be numbers or strings");
  EXPECT_EQ(error(R"({"table": "T", "rows": [[1], 2, [null]]})"),
            "each ingest row must be an array of cells");
  // Past 2^53, or fractional, a number stays a double; ±inf too.
  ASSERT_TRUE(DecodeIngestBody(
                  R"({"table": "T", "rows": [[9007199254740992, -2.0,)"
                  R"( 9007199254740994, 0.5, 1e400]]})",
                  &table, &rows)
                  .ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], storage::Value(int64_t{9007199254740992}));
  EXPECT_EQ(rows[0][1], storage::Value(int64_t{-2}));
  EXPECT_EQ(rows[0][2], storage::Value(9007199254740994.0));
  EXPECT_EQ(rows[0][3], storage::Value(0.5));
  EXPECT_EQ(rows[0][4], storage::Value(std::numeric_limits<double>::infinity()));
}

// ---------------------------------------------------------------------------
// Differential mutation harness. The reference oracles below are the
// recursive-descent parser and the DOM ingest walk that JsonReader replaced,
// kept as they were. Every mutated body must get the same verdict from both
// sides, the same error (code, text and offset), and the same decoded
// values, doubles bit for bit.
//
// ctest runs a fixed seed. To search further, let gtest vary it: with
// --gtest_filter='*Differential*' --gtest_shuffle --gtest_random_seed=1
// --gtest_repeat=20, each repetition mutates 30,000 bodies from a new seed.

namespace oracle {

constexpr int kMaxDepth = 64;

bool IsJsonWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> ParseDocument() {
    DPSTARJ_ASSIGN_OR_RETURN(Json value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::ParseError(Format("json: %s at offset %zu", what.c_str(), pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && IsJsonWhitespace(text_[pos_])) ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      DPSTARJ_ASSIGN_OR_RETURN(std::string s, ParseString());
      return Json::Str(std::move(s));
    }
    if (ConsumeLiteral("true")) return Json::Bool(true);
    if (ConsumeLiteral("false")) return Json::Bool(false);
    if (ConsumeLiteral("null")) return Json::Null();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Error(Format("unexpected character '%c'", c));
  }

  Result<Json> ParseObject(int depth) {
    ++pos_;  // '{'
    Json obj = Json::Object();
    SkipWhitespace();
    if (Consume('}')) return obj;
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      DPSTARJ_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      DPSTARJ_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      obj.Set(key, std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return obj;
      return Error("expected ',' or '}' in object");
    }
  }

  Result<Json> ParseArray(int depth) {
    ++pos_;  // '['
    Json arr = Json::Array();
    SkipWhitespace();
    if (Consume(']')) return arr;
    for (;;) {
      DPSTARJ_ASSIGN_OR_RETURN(Json value, ParseValue(depth + 1));
      arr.Append(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return arr;
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // '"'
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid hex digit in \\u escape");
            }
          }
          // UTF-8-encode the code point (surrogate pairs are passed through
          // as two 3-byte sequences — group labels are plain ASCII anyway).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error(Format("invalid escape '\\%c'", esc));
      }
    }
    return Error("unterminated string");
  }

  Result<Json> ParseNumber() {
    size_t start = pos_;
    if (Consume('-')) {
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    if (Consume('.')) {
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      return Error(Format("invalid number '%s'", token.c_str()));
    }
    return Json::Number(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

Result<Json> Parse(std::string_view text) { return Parser(text).ParseDocument(); }

Result<storage::Value> DecodeIngestCell(const Json& cell) {
  if (cell.is_string()) return storage::Value(cell.AsString());
  if (cell.is_number()) {
    const double v = cell.AsNumber();
    if (v == std::floor(v) && std::abs(v) <= 9007199254740992.0) {
      return storage::Value(static_cast<int64_t>(v));
    }
    return storage::Value(v);
  }
  return Status::InvalidArgument("ingest cells must be numbers or strings");
}

Status DecodeIngest(std::string_view text, std::string* table,
                    std::vector<std::vector<storage::Value>>* rows) {
  DPSTARJ_ASSIGN_OR_RETURN(Json body, Parse(text));
  if (!body.is_object()) {
    return Status::InvalidArgument("body must be a JSON object");
  }
  DPSTARJ_ASSIGN_OR_RETURN(*table, body.GetString("table"));
  const Json* rows_json = body.Find("rows");
  if (rows_json == nullptr || !rows_json->is_array()) {
    return Status::InvalidArgument("'rows' must be a non-empty array of rows");
  }
  rows->reserve(rows_json->items().size());
  for (const Json& row_json : rows_json->items()) {
    if (!row_json.is_array()) {
      return Status::InvalidArgument(
          "each ingest row must be an array of cells");
    }
    std::vector<storage::Value>& row = rows->emplace_back();
    row.reserve(row_json.items().size());
    for (const Json& cell : row_json.items()) {
      DPSTARJ_ASSIGN_OR_RETURN(storage::Value value, DecodeIngestCell(cell));
      row.push_back(std::move(value));
    }
  }
  return Status::OK();
}

}  // namespace oracle

std::string Describe(const Status& st) {
  return Format("error %s: %s", StatusCodeToString(st.code()),
                st.message().c_str());
}

/// A DOM rendered with exact doubles (%a tells -0, denormals and ±inf apart).
std::string Describe(const Json& j) {
  switch (j.type()) {
    case Json::Type::kNumber:
      return Format("%a", j.AsNumber());
    case Json::Type::kString:
      return "\"" + JsonEscape(j.AsString()) + "\"";
    case Json::Type::kArray: {
      std::string out = "[";
      for (const Json& item : j.items()) out += Describe(item) + ",";
      return out + "]";
    }
    case Json::Type::kObject: {
      std::string out = "{";
      for (const auto& [k, v] : j.members()) {
        out += "\"" + JsonEscape(k) + "\":" + Describe(v) + ",";
      }
      return out + "}";
    }
    default:
      return j.Dump();
  }
}

std::string DescribeParse(const Result<Json>& r) {
  return r.ok() ? "ok " + Describe(*r) : Describe(r.status());
}

std::string DescribeIngest(const Status& st, const std::string& table,
                           const std::vector<std::vector<storage::Value>>& rows) {
  if (!st.ok()) return Describe(st);
  std::string out = "ok \"" + JsonEscape(table) + "\"";
  for (const auto& row : rows) {
    out += " [";
    for (const storage::Value& v : row) {
      switch (v.type()) {
        case storage::ValueType::kInt64:
          out += Format("i%lld,", static_cast<long long>(v.AsInt64()));
          break;
        case storage::ValueType::kDouble:
          out += Format("d%a,", v.AsDouble());
          break;
        case storage::ValueType::kString:
          out += "s\"" + JsonEscape(v.AsString()) + "\",";
          break;
      }
    }
    out += "]";
  }
  return out;
}

/// The seed corpus: ingest bodies, valid and not, that reach every branch of
/// the grammar and of the decoder.
std::vector<std::string> SeedCorpus() {
  std::vector<std::string> corpus = {
      R"({"table": "Lineorder", "rows": [[900001, 1, 1, 1, 1, 5, 1234.5, 100.25],)"
      R"( [900002, 1, 1, 1, 2, 3, 99.0, 42.5]]})",
      R"({"table": "A", "rows": [[1]], "table": "B", "rows": [[2, "x"]]})",
      R"({"extra": {"a": [1, true, null, false]}, "table": "T", "rows": [[1, "s"]], "z": -0})",
      R"({"table": "T", "rows": [[1e400, -1e-400, 9007199254740993, -1e400, 4.9e-324,)"
      R"( 2.5e-324, 1e-310, 1.7976931348623157e308, 1.7976931348623159e308, -0, 0.1]]})",
      R"({"table": "T", "rows": [[01, 1., -.5, 1.e5, 00, -0.0e-0, 12345678901234567890123]]})",
      R"({"table": "T", "rows": [[.5]]})",
      R"({"table": "T\"\\\/\b\f\n\r\tAé€😀é", "rows": [["\u0000"]]})",
      R"({"table": 7, "rows": [[true]]})",
      R"({"rows": [[1], [null], 5], "table": "T"})",
      R"({"table": "T", "rows": {"a": [1]}})",
      R"([{"table": "T", "rows": [[1]]}])",
      R"("table")",
      R"({"table": "T", "rows": [[1, 2], [3, "4"], []]}  )",
      "\t{ \"table\" : \"T\" ,\n \"rows\" : [ [ 1 , 2 ] ] }\r\n",
  };
  for (int depth = 63; depth <= 66; ++depth) {
    const size_t d = static_cast<size_t>(depth);
    corpus.push_back(R"({"table": "T", "rows": )" + std::string(d, '[') + "1" +
                     std::string(d, ']') + "}");
    std::string objects;
    for (int i = 0; i < depth; ++i) objects += R"({"k": )";
    corpus.push_back(R"({"table": "T", "x": )" + objects + "[1]" +
                     std::string(d, '}') + R"(, "rows": [[1]]})");
  }
  return corpus;
}

/// Runs `bodies` mutated bodies through both sides from `seed`; returns the
/// number of disagreements (the first few are reported).
int RunDifferential(uint64_t seed, int bodies) {
  static constexpr char kAlphabet[] =
      "{}[]\",:\\/ \t\n\r-+.eE0123456789truefalsnbu\x01\x1f\x7f\x80\xff";
  const std::vector<std::string> corpus = SeedCorpus();
  std::mt19937_64 gen(seed);
  auto pick = [&](size_t n) {
    return static_cast<size_t>(std::uniform_int_distribution<uint64_t>(0, n - 1)(gen));
  };
  int disagreements = 0;
  for (int i = 0; i < bodies; ++i) {
    std::string body = corpus[pick(corpus.size())];
    const size_t mutations = 1 + pick(4);
    for (size_t m = 0; m < mutations; ++m) {
      const char byte = kAlphabet[pick(sizeof(kAlphabet) - 1)];
      switch (pick(4)) {
        case 0:  // replace one byte
          if (!body.empty()) body[pick(body.size())] = byte;
          break;
        case 1:  // insert one byte
          body.insert(pick(body.size() + 1), 1, byte);
          break;
        case 2:  // delete one byte
          if (!body.empty()) body.erase(pick(body.size()), 1);
          break;
        default: {  // duplicate a span
          const size_t start = pick(body.size() + 1);
          const std::string span = body.substr(start, 1 + pick(32));
          body.insert(start, span);
        }
      }
    }
    const std::string want_parse = DescribeParse(oracle::Parse(body));
    const std::string got_parse = DescribeParse(Json::Parse(body));
    std::string want_table, got_table;
    std::vector<std::vector<storage::Value>> want_rows, got_rows;
    const Status want_st = oracle::DecodeIngest(body, &want_table, &want_rows);
    const Status got_st = DecodeIngestBody(body, &got_table, &got_rows);
    const std::string want_ingest = DescribeIngest(want_st, want_table, want_rows);
    const std::string got_ingest = DescribeIngest(got_st, got_table, got_rows);
    if (want_parse == got_parse && want_ingest == got_ingest) continue;
    if (++disagreements <= 5) {
      ADD_FAILURE() << "body \"" << JsonEscape(body) << "\"\n  parse oracle: "
                    << want_parse << "\n  parse reader: " << got_parse
                    << "\n  ingest oracle: " << want_ingest
                    << "\n  ingest reader: " << got_ingest;
    }
  }
  return disagreements;
}

TEST(JsonDifferentialTest, SeedCorpusAgreesUnmutated) {
  for (const std::string& body : SeedCorpus()) {
    EXPECT_EQ(DescribeParse(oracle::Parse(body)), DescribeParse(Json::Parse(body)))
        << body;
    std::string want_table, got_table;
    std::vector<std::vector<storage::Value>> want_rows, got_rows;
    const Status want = oracle::DecodeIngest(body, &want_table, &want_rows);
    const Status got = DecodeIngestBody(body, &got_table, &got_rows);
    EXPECT_EQ(DescribeIngest(want, want_table, want_rows),
              DescribeIngest(got, got_table, got_rows))
        << body;
  }
}

// Objects past a few members are built through a key index instead of
// Json::Set's scan. They must still give the scanning oracle's DOM: each
// key at its first position with its last value, whether it repeats while
// the object is small, once it is indexed, or in a nested object.
TEST(JsonDifferentialTest, LargeObjectsAgreeWithTheOracle) {
  constexpr int kKeys = 3000;
  std::string body = "{\"k0\":-1,";
  for (int k = 0; k < kKeys; ++k) body += Format("\"k%d\":%d,", k, k);
  for (int k = 0; k < kKeys; k += 7) body += Format("\"k%d\":[%d],", k, -k);
  body += "\"nested\":{";
  for (int k = 0; k < 100; ++k) {
    body += Format("%s\"n%d\":%d", k == 0 ? "" : ",", k % 40, k);
  }
  body += "}}";

  const Result<Json> got = Json::Parse(body);
  EXPECT_EQ(DescribeParse(oracle::Parse(body)), DescribeParse(got));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->members().size(), static_cast<size_t>(kKeys) + 1);
  EXPECT_EQ(got->members()[0].first, "k0");
  EXPECT_EQ(got->members()[0].second.Dump(), "[0]");
  EXPECT_EQ(got->members()[8].second.Dump(), "8");
  EXPECT_EQ(got->Find("k2996")->Dump(), "[-2996]");
  EXPECT_EQ(got->members()[kKeys].first, "nested");
  const Json& nested = got->members()[kKeys].second;
  ASSERT_EQ(nested.members().size(), 40u);
  EXPECT_EQ(nested.members()[0].first, "n0");
  EXPECT_EQ(nested.members()[0].second.Dump(), "80");
  EXPECT_EQ(nested.members()[39].second.Dump(), "79");
}

TEST(JsonDifferentialTest, MutatedBodiesAgreeWithTheOracles) {
  // gtest's random seed is 0 unless --gtest_shuffle asks for one.
  const uint64_t seed =
      20261019u + static_cast<uint64_t>(testing::UnitTest::GetInstance()->random_seed());
  constexpr int kBodies = 30000;
  EXPECT_EQ(RunDifferential(seed, kBodies), 0) << "seed " << seed;
}

}  // namespace
}  // namespace dpstarj::net
