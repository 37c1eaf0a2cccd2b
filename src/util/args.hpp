// Tiny command-line flag parser for the example/bench executables.
//
// Accepts `--key=value`, `--key value`, boolean `--key`, and positional
// arguments. Unknown flags are kept (callers decide whether to reject);
// `positional()` exposes positionals in order. Flag values are stored in a
// util::Config and read with its typed getters, so a flag parses exactly
// like the same key in a .conf file; errors name the flag (`--key`).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/config.hpp"

namespace imobif::util {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const { return flags_.has(flag(key)); }

  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const {
    return flags_.get_string(flag(key), fallback);
  }
  double get_double(const std::string& key, double fallback) const {
    return flags_.get_double(flag(key), fallback);
  }
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const {
    return flags_.get_int(flag(key), fallback);
  }
  template <typename T>
  T get_unsigned(const std::string& key, T fallback) const {
    return flags_.get_unsigned<T>(flag(key), fallback);
  }
  /// A bare `--flag` counts as true; `--flag=false` etc. parse normally.
  bool get_bool(const std::string& key, bool fallback = false) const {
    return flags_.get_bool(flag(key), fallback);
  }

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Keys seen on the command line (without the dashes), for unknown-flag
  /// validation.
  std::vector<std::string> keys() const;

 private:
  /// Flags are stored under their command-line spelling, so Config's
  /// error messages name `--key`.
  static std::string flag(const std::string& key) { return "--" + key; }

  std::string program_;
  Config flags_;
  std::vector<std::string> positional_;
};

}  // namespace imobif::util
