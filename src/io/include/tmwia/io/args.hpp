// Minimal `--key=value` / `--flag` argument parser for the bench and
// example binaries, so every experiment is parameterizable from the
// command line without a dependency — plus a declarative FlagTable
// that generates --help text and rejects unknown flags from one spec.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace tmwia::io {

class Args {
 public:
  Args(int argc, const char* const* argv);

  /// Value of --name=value, if present.
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;

  /// Typed accessors with defaults. Each parses the whole value or
  /// throws std::invalid_argument naming the flag.
  ///
  /// Every integer flag is a count, an id or a seed: digits only, no
  /// sign, below 2^64.
  [[nodiscard]] std::uint64_t get_u64(const std::string& name, std::uint64_t def) const;
  /// A finite number.
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  /// --name (no value) or --name=true/1 => true.
  [[nodiscard]] bool get_flag(const std::string& name) const;

  /// Every --key seen on the command line (sorted).
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> kv_;
};

/// One row of a FlagTable.
struct FlagSpec {
  std::string_view name;        ///< flag name, without the leading --
  std::string_view value_hint;  ///< e.g. "FILE", "N"; empty = boolean flag
  std::string_view help;        ///< one-line description
  /// Comma-separated subcommands the flag applies to; empty = all.
  std::string_view commands = {};
};

/// The single source of truth for a binary's flags: renders --help and
/// validates parsed Args against it, so the usage text can never drift
/// from what the parser accepts.
class FlagTable {
 public:
  FlagTable(std::string_view usage_head, std::initializer_list<FlagSpec> flags);

  /// Generated help text: the usage head, then one aligned row per
  /// flag applicable to `command` (empty = every flag, annotated with
  /// its subcommand list).
  [[nodiscard]] std::string help(std::string_view command = {}) const;

  /// Throws std::invalid_argument naming the first flag in `args` that
  /// the table does not declare for `command`.
  void validate(const Args& args, std::string_view command = {}) const;

  [[nodiscard]] bool knows(std::string_view name, std::string_view command = {}) const;

 private:
  std::string usage_head_;
  std::vector<FlagSpec> flags_;
};

}  // namespace tmwia::io
