#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nab::runtime {

/// Minimal insertion-ordered JSON value: the one module that writes the
/// runtime's machine-readable outputs (BENCH_runtime.json and friends) and
/// reads back the documents the repo loads (hunt corpora). Deliberately
/// tiny: objects keep key insertion order and numbers print
/// deterministically, so two sweeps that measured the same values serialize
/// to byte-identical files — the property the `--jobs 1` vs `--jobs N`
/// determinism contract is checked against.
class json {
 public:
  enum class kind { null, object, array, string, number_int, number_real, boolean };

  json() : kind_(kind::null) {}

  static json object();
  static json array();
  static json str(std::string v);
  static json num(double v);
  static json num(std::int64_t v);
  static json num(std::uint64_t v) { return num(static_cast<std::int64_t>(v)); }
  static json num(int v) { return num(static_cast<std::int64_t>(v)); }
  static json boolean(bool v);

  /// Object member (insertion order preserved). Returns *this for chaining.
  json& set(std::string key, json value);
  /// Array element. Returns *this for chaining.
  json& push(json value);

  /// Serializes with 2-space indentation and a trailing newline at depth 0.
  std::string dump() const;

  /// Parses one document; throws nab::error naming the byte offset of the
  /// first malformed token. The grammar is the subset the loaded documents
  /// use: objects, arrays, strings with the \" \\ \/ \n \t \r escapes,
  /// true/false, and integer literals within int64 — no null, fractions,
  /// exponents, or \u escapes.
  static json parse(std::string_view text);

  kind type() const { return kind_; }
  /// First object member named `key`, nullptr when there is none.
  const json* find(std::string_view key) const;
  const std::vector<std::pair<std::string, json>>& members() const {
    return members_;
  }
  const std::vector<json>& elements() const { return elements_; }
  const std::string& string_value() const { return string_; }
  std::int64_t int_value() const { return int_; }
  bool bool_value() const { return bool_; }

 private:
  void write(std::string& out, int depth) const;

  kind kind_;
  std::string string_;
  std::int64_t int_ = 0;
  double real_ = 0.0;
  bool bool_ = false;
  std::vector<std::pair<std::string, json>> members_;  // object
  std::vector<json> elements_;                         // array
};

/// "0x"-prefixed 16-digit hex for a seed. Seeds are serialized as strings:
/// JSON numbers lose uint64 range (2^53 mantissa, int64 sign flip).
std::string hex_seed(std::uint64_t seed);

/// Inverse of hex_seed: exactly "0x" plus 16 hex digits of either case;
/// throws nab::error on anything else.
std::uint64_t parse_hex_seed(std::string_view text);

/// Writes `doc.dump()` to `path` (throws nab::error on I/O failure).
void write_json_file(const std::string& path, const json& doc);

}  // namespace nab::runtime
