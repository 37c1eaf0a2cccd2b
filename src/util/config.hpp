// Minimal key = value configuration files for the experiment CLI.
//
// Grammar: one `key = value` pair per line; `#` and `;` start comments;
// blank lines ignored; keys are case-sensitive; later duplicates win.
// Values are retrieved typed, with parse errors reported by exception.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

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
  /// Keys present, sorted, for unknown-key validation.
  std::vector<std::string> keys() const;

  /// Typed getters return the default when the key is absent and throw
  /// std::invalid_argument when present but unparsable.
  std::string get_string(const std::string& key,
                         const std::string& fallback = "") const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  /// Accepts true/false, yes/no, on/off, 1/0 (case-insensitive).
  bool get_bool(const std::string& key, bool fallback) const;

  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

 private:
  std::unordered_map<std::string, std::string> values_;
};

}  // namespace imobif::util
