// Minimal key = value configuration files for the experiment CLI.
//
// Grammar: one `key = value` pair per line; `#` and `;` start comments;
// blank lines ignored; keys are case-sensitive; later duplicates win.
// Values are retrieved typed, with parse errors reported by exception.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>

namespace imobif::util {

class Config {
 public:
  Config() = default;

  /// Parses from text; throws std::invalid_argument with a line number on
  /// malformed input.
  static Config from_string(const std::string& text);

  /// Parses a file; throws std::runtime_error when unreadable.
  static Config from_file(const std::string& path);

  bool has(const std::string& key) const { return values_.count(key) != 0; }
  std::size_t size() const { return values_.size(); }

  /// Typed getters return the default when the key is absent and throw
  /// std::invalid_argument when present but unparsable.
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// Full-range unsigned integer (seeds). Throws std::out_of_range when
  /// the value is negative or exceeds 2^64 - 1.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  /// Accepts true/false, yes/no, on/off, 1/0 (case-insensitive).
  bool get_bool(const std::string& key, bool fallback) const;

  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

 private:
  std::unordered_map<std::string, std::string> values_;
};

/// Parses `text` as a full-range unsigned 64-bit integer (seeds), with an
/// optional leading '+'. Throws std::out_of_range when the value is
/// negative or exceeds 2^64 - 1, and std::invalid_argument when it is not
/// a number or has trailing junk. `what` names the value in the message
/// (e.g. "Config: key 'seed'" or "Args: --seed"). Config::get_u64 and
/// Args::get_u64 both parse through it.
std::uint64_t parse_u64(const std::string& text, const std::string& what);

}  // namespace imobif::util
