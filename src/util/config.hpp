// Minimal key = value configuration files for the experiment CLI.
//
// Grammar: one `key = value` pair per line; `#` and `;` start comments;
// blank lines ignored; keys are case-sensitive; later duplicates win.
// Values are retrieved typed, with parse errors reported by exception.
// Numbers may carry a leading '+' (unsigned values excepted); util::Args
// reads command-line flag values with this same grammar.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace imobif::util {

/// The one unsigned-integer grammar: bare base-10 digits that fit T. Empty
/// text, a sign, junk or a value T cannot hold give nullopt instead of
/// wrapping or truncating, so every uint64 (2^64 - 1 included) reads back
/// and -1 never becomes 2^64 - 1.
template <typename T>
std::optional<T> parse_unsigned(std::string_view text) {
  static_assert(std::is_unsigned_v<T>);
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

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
  /// parse_unsigned's grammar.
  template <typename T>
  T get_unsigned(const std::string& key, T fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    if (const std::optional<T> value = parse_unsigned<T>(it->second)) {
      return *value;
    }
    throw std::invalid_argument("Config: key '" + key +
                                "' expects an unsigned integer, got '" +
                                it->second + "'");
  }
  /// Accepts true/false, yes/no, on/off, 1/0 (case-insensitive).
  bool get_bool(const std::string& key, bool fallback) const;

  void set(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

 private:
  std::unordered_map<std::string, std::string> values_;
};

}  // namespace imobif::util
