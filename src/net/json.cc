#include "net/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"

namespace dpstarj::net {

namespace {

constexpr int kMaxDepth = 64;

bool IsJsonWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

}  // namespace

Json Json::Bool(bool b) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = b;
  return j;
}

Json Json::Number(double v) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = v;
  return j;
}

Json Json::Str(std::string s) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(s);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::AsBool() const {
  DPSTARJ_CHECK(is_bool(), "Json::AsBool on a non-bool");
  return bool_;
}

double Json::AsNumber() const {
  DPSTARJ_CHECK(is_number(), "Json::AsNumber on a non-number");
  return number_;
}

const std::string& Json::AsString() const {
  DPSTARJ_CHECK(is_string(), "Json::AsString on a non-string");
  return string_;
}

void Json::Append(Json v) {
  DPSTARJ_CHECK(is_array(), "Json::Append on a non-array");
  items_.push_back(std::move(v));
}

void Json::Set(const std::string& key, Json v) {
  DPSTARJ_CHECK(is_object(), "Json::Set on a non-object");
  for (auto& [k, old] : members_) {
    if (k == key) {
      old = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

Result<std::string> Json::GetString(std::string_view key) const {
  const Json* v = Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument(
        Format("missing field '%.*s'", static_cast<int>(key.size()), key.data()));
  }
  if (!v->is_string()) {
    return Status::InvalidArgument(
        Format("field '%.*s' must be a string", static_cast<int>(key.size()),
               key.data()));
  }
  return v->AsString();
}

Result<double> Json::GetNumber(std::string_view key) const {
  const Json* v = Find(key);
  if (v == nullptr) {
    return Status::InvalidArgument(
        Format("missing field '%.*s'", static_cast<int>(key.size()), key.data()));
  }
  if (!v->is_number()) {
    return Status::InvalidArgument(
        Format("field '%.*s' must be a number", static_cast<int>(key.size()),
               key.data()));
  }
  return v->AsNumber();
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += Format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string Json::Dump() const {
  switch (type_) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return bool_ ? "true" : "false";
    case Type::kNumber: {
      if (!std::isfinite(number_)) return "null";
      // Integral values (ε totals, counters, COUNT answers) render without a
      // mantissa; everything else round-trips through %.17g.
      double integral_part = 0.0;
      if (std::modf(number_, &integral_part) == 0.0 &&
          std::fabs(number_) < 9.007199254740992e15) {
        return Format("%lld", static_cast<long long>(number_));
      }
      return Format("%.17g", number_);
    }
    case Type::kString:
      return "\"" + JsonEscape(string_) + "\"";
    case Type::kArray: {
      std::string out = "[";
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ",";
        out += items_[i].Dump();
      }
      return out + "]";
    }
    case Type::kObject: {
      std::string out = "{";
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ",";
        out += "\"" + JsonEscape(members_[i].first) + "\":";
        out += members_[i].second.Dump();
      }
      return out + "}";
    }
  }
  return "null";
}

Json::Type JsonReader::Peek() {
  if (!ok()) return Json::Type::kNull;
  // Checked before whitespace, so the offset is where the value's slot
  // begins.
  if (depth_ > kMaxDepth) {
    Fail("nesting too deep");
    return Json::Type::kNull;
  }
  SkipWhitespace();
  if (pos_ >= text_.size()) {
    Fail("unexpected end of input");
    return Json::Type::kNull;
  }
  const char c = text_[pos_];
  switch (c) {
    case '{': return Json::Type::kObject;
    case '[': return Json::Type::kArray;
    case '"': return Json::Type::kString;
    case 't':
      if (text_.compare(pos_, 4, "true") == 0) return Json::Type::kBool;
      break;
    case 'f':
      if (text_.compare(pos_, 5, "false") == 0) return Json::Type::kBool;
      break;
    case 'n':
      if (text_.compare(pos_, 4, "null") == 0) return Json::Type::kNull;
      break;
    default:
      if (c == '-' || IsDigit(c)) return Json::Type::kNumber;
  }
  Fail(Format("unexpected character '%c'", c));
  return Json::Type::kNull;
}

void JsonReader::BeginObject() { Enter(Json::Type::kObject); }

bool JsonReader::NextKey(std::string* key) {
  if (!Step('}', "expected ',' or '}' in object")) return false;
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    Fail("expected object key");
    return false;
  }
  ReadString(key);
  SkipWhitespace();
  if (ok() && !Consume(':')) Fail("expected ':' after object key");
  return ok();
}

void JsonReader::BeginArray() { Enter(Json::Type::kArray); }

bool JsonReader::NextItem() { return Step(']', "expected ',' or ']' in array"); }

void JsonReader::String(std::string* out) {
  if (Expect(Json::Type::kString)) ReadString(out);
}

double JsonReader::Number() {
  if (!Expect(Json::Type::kNumber)) return 0.0;
  const size_t start = pos_;
  auto skip_digits = [&] {
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
  };
  Consume('-');
  skip_digits();
  if (Consume('.')) skip_digits();
  if (Consume('e') || Consume('E')) {
    if (!Consume('+')) Consume('-');
    skip_digits();
  }
  const char* first = text_.data() + start;
  const char* last = text_.data() + pos_;
  double value = 0.0;
  auto [end, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range) {
    // from_chars leaves `value` unset past the double range; strtod returns
    // the ±inf, 0 or denormal that this dialect has always read there.
    const std::string token(first, last);
    char* token_end = nullptr;
    value = std::strtod(token.c_str(), &token_end);
    end = first + (token_end - token.c_str());
    ec = std::errc();
  }
  if (ec != std::errc() || end != last) {
    Fail(Format("invalid number '%s'", std::string(first, last).c_str()));
    return 0.0;
  }
  return value;
}

bool JsonReader::Bool() {
  if (!Expect(Json::Type::kBool)) return false;
  const bool value = text_[pos_] == 't';
  pos_ += value ? 4 : 5;
  return value;
}

void JsonReader::Null() {
  if (Expect(Json::Type::kNull)) pos_ += 4;
}

void JsonReader::Skip() {
  switch (Peek()) {
    case Json::Type::kObject:
      BeginObject();
      while (NextKey(nullptr)) Skip();
      return;
    case Json::Type::kArray:
      BeginArray();
      while (NextItem()) Skip();
      return;
    case Json::Type::kString:
      String(nullptr);
      return;
    case Json::Type::kNumber:
      Number();
      return;
    case Json::Type::kBool:
      Bool();
      return;
    case Json::Type::kNull:
      Null();
      return;
  }
}

bool JsonReader::End() {
  if (ok()) {
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters after JSON document");
  }
  return ok();
}

bool JsonReader::Expect(Json::Type type) {
  if (Peek() != type) Fail("value of another type");
  return ok();
}

void JsonReader::Enter(Json::Type type) {
  if (!Expect(type)) return;
  ++pos_;
  ++depth_;
  first_ = true;
}

bool JsonReader::Step(char close, const char* expected) {
  if (!ok()) return false;
  SkipWhitespace();
  if (Consume(close)) {
    --depth_;
    first_ = false;
    return false;
  }
  if (!std::exchange(first_, false) && !Consume(',')) {
    Fail(expected);
    return false;
  }
  return true;
}

bool JsonReader::Consume(char c) {
  if (pos_ >= text_.size() || text_[pos_] != c) return false;
  ++pos_;
  return true;
}

void JsonReader::Fail(const std::string& what) {
  if (!ok()) return;
  status_ = Status::ParseError(Format("json: %s at offset %zu", what.c_str(), pos_));
}

void JsonReader::SkipWhitespace() {
  while (pos_ < text_.size() && IsJsonWhitespace(text_[pos_])) ++pos_;
}

void JsonReader::ReadString(std::string* out) {
  static constexpr std::string_view kEscapes = "\"\\/bfnrt";
  static constexpr std::string_view kEscaped = "\"\\/\b\f\n\r\t";
  ++pos_;  // '"'
  if (out != nullptr) out->clear();
  while (pos_ < text_.size()) {
    // Copy each run of plain characters with one append.
    size_t run = pos_;
    while (run < text_.size() && text_[run] != '"' && text_[run] != '\\' &&
           static_cast<unsigned char>(text_[run]) >= 0x20) {
      ++run;
    }
    if (out != nullptr) out->append(text_, pos_, run - pos_);
    pos_ = run;
    if (pos_ >= text_.size()) break;
    const char c = text_[pos_++];
    if (c == '"') return;
    if (c != '\\') return Fail("unescaped control character in string");
    if (pos_ >= text_.size()) break;
    const char esc = text_[pos_++];
    if (const size_t e = kEscapes.find(esc); e != std::string_view::npos) {
      if (out != nullptr) *out += kEscaped[e];
      continue;
    }
    if (esc != 'u') return Fail(Format("invalid escape '\\%c'", esc));
    if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
    unsigned code = 0;
    const char* hex = text_.data() + pos_;
    const auto [hex_end, ec] = std::from_chars(hex, hex + 4, code, 16);
    pos_ += static_cast<size_t>(hex_end - hex);
    if (hex_end != hex + 4) {
      ++pos_;  // the offset is just past the bad digit
      return Fail("invalid hex digit in \\u escape");
    }
    if (out == nullptr) continue;
    // UTF-8-encode the code point (surrogate pairs are passed through as two
    // 3-byte sequences — group labels are plain ASCII anyway).
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }
  Fail("unterminated string");
}

Json Json::Read(JsonReader* r) {
  switch (r->Peek()) {
    case Type::kObject: {
      Json obj = Object();
      r->BeginObject();
      // Set() scans the members for every key, which is quadratic in the
      // key count. Past kScannedMembers members a key → position index keeps
      // the build linear; smaller objects scan and allocate nothing. Either
      // way a repeated key keeps its first position and its last value.
      constexpr size_t kScannedMembers = 16;
      std::unordered_map<std::string, size_t> position;
      std::string key;
      while (r->NextKey(&key)) {
        Json value = Read(r);
        if (obj.members_.size() < kScannedMembers) {
          obj.Set(key, std::move(value));
          continue;
        }
        if (position.empty()) {
          for (size_t i = 0; i < obj.members_.size(); ++i) {
            position.emplace(obj.members_[i].first, i);
          }
        }
        auto [it, inserted] = position.try_emplace(key, obj.members_.size());
        if (inserted) {
          obj.members_.emplace_back(key, std::move(value));
        } else {
          obj.members_[it->second].second = std::move(value);
        }
      }
      return obj;
    }
    case Type::kArray: {
      Json arr = Array();
      r->BeginArray();
      while (r->NextItem()) arr.Append(Read(r));
      return arr;
    }
    case Type::kString: {
      std::string s;
      r->String(&s);
      return Str(std::move(s));
    }
    case Type::kNumber:
      return Number(r->Number());
    case Type::kBool:
      return Bool(r->Bool());
    case Type::kNull:
      break;
  }
  r->Null();
  return Null();
}

Result<Json> Json::Parse(std::string_view text) {
  JsonReader r(text);
  Json value = Read(&r);
  if (!r.End()) return r.status();
  return value;
}

}  // namespace dpstarj::net
