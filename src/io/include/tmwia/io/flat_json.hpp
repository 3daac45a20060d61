// FlatJson: a tiny parser/renderer for one-line *flat* JSON objects —
// string / number / bool / null values only, no nesting.
//
// This is the wire format of the serve request stream (one request per
// line, jq-able) and the mirror of Args for JSONL input: parse a line
// once, then read typed fields with defaults. Like io::FlagTable, the
// caller validates the parsed keys against a declarative per-op table
// and rejects anything unknown, so the accepted request grammar can
// never drift from what the handlers read.
//
// Deliberately NOT a general JSON parser: nested objects/arrays are a
// parse error. The library's emitted JSON (metrics snapshots,
// RunReport) stays write-only; this covers the one place we *read*
// JSON, with ~100 lines and no dependency.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tmwia::io {

class FlatJson {
 public:
  /// Parse one flat JSON object. Throws std::invalid_argument (with the
  /// offending position/key) on malformed input, nesting, or duplicate
  /// keys.
  static FlatJson parse(std::string_view text);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed accessors with defaults. A present field of the wrong type,
  /// or a number its type cannot hold (a signed or out-of-range
  /// get_u64, an overflowing get_double), throws std::invalid_argument
  /// naming the key.
  [[nodiscard]] std::string get_string(const std::string& key, const std::string& def) const;
  [[nodiscard]] double get_double(const std::string& key, double def) const;
  [[nodiscard]] std::uint64_t get_u64(const std::string& key, std::uint64_t def) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool def) const;

  /// Every key present (sorted), for unknown-field validation.
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  enum class Kind : std::uint8_t { kString, kNumber, kBool, kNull };
  struct Value {
    Kind kind;
    std::string text;  ///< unescaped string / number token / "true"/"false"
  };
  const Value* find(const std::string& key) const;

  std::map<std::string, Value> kv_;
};

}  // namespace tmwia::io
