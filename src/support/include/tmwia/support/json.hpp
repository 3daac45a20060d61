// JSON text helpers shared by every hand-written JSON writer (obs
// exports, run reports, serve responses). Header-only so both src/obs
// and src/io can use them without depending on each other.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace tmwia::support {

/// Append `s` as a quoted JSON string literal: quote, backslash and
/// control characters escaped, every other byte copied through.
inline void append_json_string(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Append `v` with 17 significant digits, enough to round-trip any
/// double exactly.
inline void append_json_f64(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

}  // namespace tmwia::support
