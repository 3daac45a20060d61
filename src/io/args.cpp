#include "tmwia/io/args.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace tmwia::io {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      throw std::invalid_argument("Args: expected --key[=value], got '" + a + "'");
    }
    a = a.substr(2);
    const auto eq = a.find('=');
    if (eq == std::string::npos) {
      kv_[a] = "true";
    } else {
      kv_[a.substr(0, eq)] = a.substr(eq + 1);
    }
  }
}

std::optional<std::string> Args::get(const std::string& name) const {
  const auto it = kv_.find(name);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

namespace {

/// from_chars over all of `text`: false if it fails or leaves a byte.
template <typename T>
bool parse_whole(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

[[noreturn]] void reject(const std::string& name, const std::string& text,
                         const char* expected) {
  throw std::invalid_argument("--" + name + ": expected " + expected + ", got '" + text + "'");
}

}  // namespace

std::uint64_t Args::get_u64(const std::string& name, std::uint64_t def) const {
  const auto v = get(name);
  if (!v) return def;
  std::uint64_t out = 0;
  if (!parse_whole(*v, out)) reject(name, *v, "an unsigned integer below 2^64");
  return out;
}

double Args::get_double(const std::string& name, double def) const {
  const auto v = get(name);
  if (!v) return def;
  double out = 0.0;
  if (!parse_whole(*v, out) || !std::isfinite(out)) reject(name, *v, "a finite number");
  return out;
}

bool Args::get_flag(const std::string& name) const {
  const auto v = get(name);
  return v && (*v == "true" || *v == "1");
}

std::vector<std::string> Args::keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& [k, v] : kv_) out.push_back(k);
  return out;
}

namespace {

/// Does the comma-separated `commands` list contain `command`?
bool applies_to(std::string_view commands, std::string_view command) {
  if (commands.empty() || command.empty()) return true;
  std::size_t pos = 0;
  while (pos <= commands.size()) {
    const auto comma = commands.find(',', pos);
    const auto token = commands.substr(
        pos, comma == std::string_view::npos ? std::string_view::npos : comma - pos);
    if (token == command) return true;
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  return false;
}

}  // namespace

FlagTable::FlagTable(std::string_view usage_head, std::initializer_list<FlagSpec> flags)
    : usage_head_(usage_head), flags_(flags) {}

std::string FlagTable::help(std::string_view command) const {
  std::string out(usage_head_);
  if (!out.empty() && out.back() != '\n') out.push_back('\n');

  std::size_t width = 0;
  auto rendered = [](const FlagSpec& f) {
    std::string s = "--";
    s += f.name;
    if (!f.value_hint.empty()) {
      s += "=";
      s += f.value_hint;
    }
    return s;
  };
  for (const auto& f : flags_) {
    if (!applies_to(f.commands, command)) continue;
    width = std::max(width, rendered(f).size());
  }
  for (const auto& f : flags_) {
    if (!applies_to(f.commands, command)) continue;
    std::string row = "  " + rendered(f);
    row.append(width + 2 - (row.size() - 2), ' ');
    row += f.help;
    if (command.empty() && !f.commands.empty()) {
      row += "  [";
      row += f.commands;
      row += "]";
    }
    row.push_back('\n');
    out += row;
  }
  return out;
}

bool FlagTable::knows(std::string_view name, std::string_view command) const {
  for (const auto& f : flags_) {
    if (f.name == name && applies_to(f.commands, command)) return true;
  }
  return false;
}

void FlagTable::validate(const Args& args, std::string_view command) const {
  for (const auto& key : args.keys()) {
    if (!knows(key, command)) {
      std::string msg = "unknown flag --" + key;
      if (!command.empty()) {
        msg += " for '";
        msg += command;
        msg += "'";
      }
      msg += " (see --help)";
      throw std::invalid_argument(msg);
    }
  }
}

}  // namespace tmwia::io
