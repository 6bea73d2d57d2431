// Tiny command-line flag parser for the example/bench executables.
//
// Accepts `--key=value`, `--key value`, boolean `--key`, and positional
// arguments. Unknown flags are kept (callers decide whether to reject);
// `remaining()` exposes positionals in order.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace imobif::util {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const { return flags_.count(key) != 0; }

  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// Full-range unsigned integer (seeds), parsed by util::parse_u64:
  /// throws std::out_of_range when negative or above 2^64 - 1 and
  /// std::invalid_argument on anything else that is not a number.
  std::uint64_t get_u64(const std::string& key, std::uint64_t fallback) const;
  /// A bare `--flag` counts as true; `--flag=false` etc. parse normally.
  bool get_bool(const std::string& key, bool fallback = false) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Keys seen on the command line, for unknown-flag validation.
  std::vector<std::string> keys() const;

 private:
  std::string program_;
  std::unordered_map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace imobif::util
