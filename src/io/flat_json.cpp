#include "tmwia/io/flat_json.hpp"

#include <cctype>
#include <stdexcept>

namespace tmwia::io {
namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::invalid_argument("flat json: " + what + " at offset " + std::to_string(pos));
}

void skip_ws(std::string_view s, std::size_t& i) {
  while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r' || s[i] == '\n')) ++i;
}

std::string parse_string(std::string_view s, std::size_t& i) {
  if (i >= s.size() || s[i] != '"') fail(i, "expected '\"'");
  ++i;
  std::string out;
  while (i < s.size() && s[i] != '"') {
    char c = s[i++];
    if (c == '\\') {
      if (i >= s.size()) fail(i, "truncated escape");
      const char e = s[i++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case 'r': out.push_back('\r'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'u': {
          if (i + 4 > s.size()) fail(i, "truncated \\u escape");
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            const char h = s[i++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail(i, "bad \\u escape");
          }
          // The request grammar is ASCII; anything else round-trips as
          // UTF-8 from the raw bytes, so only BMP<128 escapes decode.
          if (code > 0x7f) fail(i, "non-ASCII \\u escape unsupported");
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail(i, "unknown escape");
      }
    } else {
      out.push_back(c);
    }
  }
  if (i >= s.size()) fail(i, "unterminated string");
  ++i;  // closing quote
  return out;
}

}  // namespace

FlatJson FlatJson::parse(std::string_view text) {
  FlatJson out;
  std::size_t i = 0;
  skip_ws(text, i);
  if (i >= text.size() || text[i] != '{') fail(i, "expected '{'");
  ++i;
  skip_ws(text, i);
  if (i < text.size() && text[i] == '}') {
    ++i;
  } else {
    for (;;) {
      skip_ws(text, i);
      const std::string key = parse_string(text, i);
      skip_ws(text, i);
      if (i >= text.size() || text[i] != ':') fail(i, "expected ':' after key \"" + key + '"');
      ++i;
      skip_ws(text, i);
      if (i >= text.size()) fail(i, "missing value for key \"" + key + '"');
      Value v;
      const char c = text[i];
      if (c == '"') {
        v = {Kind::kString, parse_string(text, i)};
      } else if (c == '{' || c == '[') {
        fail(i, "nested value for key \"" + key + "\" (flat objects only)");
      } else if (text.substr(i, 4) == "true") {
        v = {Kind::kBool, "true"};
        i += 4;
      } else if (text.substr(i, 5) == "false") {
        v = {Kind::kBool, "false"};
        i += 5;
      } else if (text.substr(i, 4) == "null") {
        v = {Kind::kNull, ""};
        i += 4;
      } else {
        const std::size_t start = i;
        while (i < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[i])) != 0 || text[i] == '-' ||
                text[i] == '+' || text[i] == '.' || text[i] == 'e' || text[i] == 'E')) {
          ++i;
        }
        if (i == start) fail(i, "bad value for key \"" + key + '"');
        v = {Kind::kNumber, std::string(text.substr(start, i - start))};
      }
      if (!out.kv_.emplace(key, std::move(v)).second) {
        throw std::invalid_argument("flat json: duplicate key \"" + key + '"');
      }
      skip_ws(text, i);
      if (i < text.size() && text[i] == ',') {
        ++i;
        continue;
      }
      if (i < text.size() && text[i] == '}') {
        ++i;
        break;
      }
      fail(i, "expected ',' or '}'");
    }
  }
  skip_ws(text, i);
  if (i != text.size()) fail(i, "trailing bytes after object");
  return out;
}

const FlatJson::Value* FlatJson::find(const std::string& key) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? nullptr : &it->second;
}

bool FlatJson::has(const std::string& key) const { return find(key) != nullptr; }

std::string FlatJson::get_string(const std::string& key, const std::string& def) const {
  const auto* v = find(key);
  if (v == nullptr || v->kind == Kind::kNull) return def;
  if (v->kind != Kind::kString) {
    throw std::invalid_argument("flat json: field \"" + key + "\" is not a string");
  }
  return v->text;
}

std::uint64_t FlatJson::get_u64(const std::string& key, std::uint64_t def) const {
  const auto* v = find(key);
  if (v == nullptr || v->kind == Kind::kNull) return def;
  if (v->kind != Kind::kNumber) {
    throw std::invalid_argument("flat json: field \"" + key + "\" is not a number");
  }
  // std::stoull accepts a sign and wraps "-1" to 2^64-1: digits only.
  std::size_t pos = 0;
  std::uint64_t parsed = 0;
  try {
    if (v->text[0] != '-' && v->text[0] != '+') parsed = std::stoull(v->text, &pos);
  } catch (const std::exception&) {  // out of range, or no digits
    pos = 0;
  }
  if (pos == 0 || pos != v->text.size()) {
    throw std::invalid_argument("flat json: field \"" + key +
                                "\" is not an unsigned 64-bit integer");
  }
  return parsed;
}

double FlatJson::get_double(const std::string& key, double def) const {
  const auto* v = find(key);
  if (v == nullptr || v->kind == Kind::kNull) return def;
  if (v->kind != Kind::kNumber) {
    throw std::invalid_argument("flat json: field \"" + key + "\" is not a number");
  }
  try {
    return std::stod(v->text);
  } catch (const std::exception&) {  // out of range, or no digits
    throw std::invalid_argument("flat json: field \"" + key + "\" is not a finite number");
  }
}

bool FlatJson::get_bool(const std::string& key, bool def) const {
  const auto* v = find(key);
  if (v == nullptr || v->kind == Kind::kNull) return def;
  if (v->kind != Kind::kBool) {
    throw std::invalid_argument("flat json: field \"" + key + "\" is not a bool");
  }
  return v->text == "true";
}

std::vector<std::string> FlatJson::keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& [k, v] : kv_) out.push_back(k);
  return out;
}

}  // namespace tmwia::io
