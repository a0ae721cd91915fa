#include "runtime/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/assert.hpp"
#include "util/error.hpp"

namespace nab::runtime {

json json::object() {
  json j;
  j.kind_ = kind::object;
  return j;
}

json json::array() {
  json j;
  j.kind_ = kind::array;
  return j;
}

json json::str(std::string v) {
  json j;
  j.kind_ = kind::string;
  j.string_ = std::move(v);
  return j;
}

json json::num(double v) {
  json j;
  j.kind_ = kind::number_real;
  j.real_ = v;
  return j;
}

json json::num(std::int64_t v) {
  json j;
  j.kind_ = kind::number_int;
  j.int_ = v;
  return j;
}

json json::boolean(bool v) {
  json j;
  j.kind_ = kind::boolean;
  j.bool_ = v;
  return j;
}

json& json::set(std::string key, json value) {
  NAB_ASSERT(kind_ == kind::object, "json::set on a non-object");
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

json& json::push(json value) {
  NAB_ASSERT(kind_ == kind::array, "json::push on a non-array");
  elements_.push_back(std::move(value));
  return *this;
}

namespace {

void write_escaped(std::string& out, const std::string& s) {
  out.push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_real(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan; null is the convention
    out += "null";
    return;
  }
  // Shortest round-trippable decimal would need to_chars; %.17g is longer
  // but equally deterministic, which is what matters here.
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void indent(std::string& out, int depth) {
  out.append(static_cast<std::size_t>(2 * depth), ' ');
}

}  // namespace

void json::write(std::string& out, int depth) const {
  switch (kind_) {
    case kind::null:
      out += "null";
      break;
    case kind::string:
      write_escaped(out, string_);
      break;
    case kind::number_int:
      out += std::to_string(int_);
      break;
    case kind::number_real:
      write_real(out, real_);
      break;
    case kind::boolean:
      out += bool_ ? "true" : "false";
      break;
    case kind::object: {
      if (members_.empty()) {
        out += "{}";
        break;
      }
      out += "{\n";
      for (std::size_t i = 0; i < members_.size(); ++i) {
        indent(out, depth + 1);
        write_escaped(out, members_[i].first);
        out += ": ";
        members_[i].second.write(out, depth + 1);
        if (i + 1 < members_.size()) out.push_back(',');
        out.push_back('\n');
      }
      indent(out, depth);
      out.push_back('}');
      break;
    }
    case kind::array: {
      if (elements_.empty()) {
        out += "[]";
        break;
      }
      out += "[\n";
      for (std::size_t i = 0; i < elements_.size(); ++i) {
        indent(out, depth + 1);
        elements_[i].write(out, depth + 1);
        if (i + 1 < elements_.size()) out.push_back(',');
        out.push_back('\n');
      }
      indent(out, depth);
      out.push_back(']');
      break;
    }
  }
}

std::string json::dump() const {
  std::string out;
  write(out, 0);
  out.push_back('\n');
  return out;
}

// Seeds are full-width uint64; JSON numbers are lossy there (2^53 mantissa,
// and int64 casts turn the high bit into a sign), so they travel as hex.
std::string hex_seed(std::uint64_t seed) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(seed));
  return buf;
}

std::uint64_t parse_hex_seed(std::string_view text) {
  if (text.size() != 18 || text.substr(0, 2) != "0x")
    throw error("'" + std::string(text) + "' is not a 0x-prefixed 16-digit seed");
  std::uint64_t out = 0;
  for (const char c : text.substr(2)) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<std::uint64_t>(c - 'a') + 10;
    else if (c >= 'A' && c <= 'F') digit = static_cast<std::uint64_t>(c - 'A') + 10;
    else
      throw error("bad hex digit in seed '" + std::string(text) + "'");
    out = (out << 4) | digit;
  }
  return out;
}

const json* json::find(std::string_view key) const {
  for (const auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

namespace {

/// Recursive-descent reader for json::parse's grammar.
class reader {
 public:
  explicit reader(std::string_view text) : text_(text) {}

  json parse() {
    json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw error("malformed JSON (" + what + " at byte " + std::to_string(pos_) +
                ")");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\t' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  json value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return json::str(string());
      case 't':
      case 'f': return boolean();
      default: return number();
    }
  }

  json object() {
    expect('{');
    json v = json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.set(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  json array() {
    expect('[');
    json v = json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.push(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("dangling escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          default: fail("unsupported escape");
        }
        continue;
      }
      out.push_back(c);
    }
  }

  json boolean() {
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      return json::boolean(true);
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      return json::boolean(false);
    }
    fail("expected boolean");
  }

  json number() {
    const bool negative = peek() == '-';
    if (negative) ++pos_;
    if (!at_digit()) fail("expected number");
    // The magnitude accumulates unsigned against the int64 bound of its
    // sign (2^63 for a negative), so an out-of-range literal is rejected
    // before any arithmetic can overflow.
    const std::uint64_t limit = (std::uint64_t{1} << 63) - (negative ? 0 : 1);
    std::uint64_t magnitude = 0;
    for (; at_digit(); ++pos_) {
      const auto digit = static_cast<std::uint64_t>(text_[pos_] - '0');
      if (magnitude > (limit - digit) / 10) fail("integer out of int64 range");
      magnitude = magnitude * 10 + digit;
    }
    return json::num(static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

json json::parse(std::string_view text) { return reader(text).parse(); }

void write_json_file(const std::string& path, const json& doc) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw error("cannot open " + path + " for writing");
  const std::string text = doc.dump();
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();  // surface disk-full/quota errors now, not in the destructor
  if (!out) throw error("short write to " + path);
}

}  // namespace nab::runtime
