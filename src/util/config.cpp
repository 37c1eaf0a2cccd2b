#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace imobif::util {

namespace {

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r\n");
  if (first == std::string::npos) return "";
  const auto last = s.find_last_not_of(" \t\r\n");
  return s.substr(first, last - first + 1);
}

/// std::from_chars takes no leading '+'; the config grammar does, once
/// ("+-1" stays an error).
const char* skip_plus(const char* first, const char* last) {
  return last - first > 1 && first[0] == '+' && first[1] != '-' ? first + 1
                                                                : first;
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

}  // namespace

Config Config::from_string(const std::string& text) {
  Config config;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    const std::string trimmed = trim(line);
    if (trimmed.empty()) continue;
    const auto eq = trimmed.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("Config: missing '=' on line " +
                                  std::to_string(line_no));
    }
    const std::string key = trim(trimmed.substr(0, eq));
    const std::string value = trim(trimmed.substr(eq + 1));
    if (key.empty()) {
      throw std::invalid_argument("Config: empty key on line " +
                                  std::to_string(line_no));
    }
    config.values_[key] = value;
  }
  return config;
}

Config Config::from_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("Config: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return from_string(buffer.str());
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  std::sort(out.begin(), out.end());
  return out;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  // std::from_chars, not std::stod: stod throws out_of_range on subnormal
  // values such as "5e-324", which the shortest-round-trip formatter
  // (util::Json::number_to_string) legitimately emits — the parser must
  // accept everything the formatter produces. from_chars also ignores the
  // locale and accepts a leading '+' not at all, so normalize that here.
  const char* last = text.data() + text.size();
  const char* first = skip_plus(text.data(), last);
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::invalid_argument || first == last) {
    throw std::invalid_argument("Config: key '" + key +
                                "' is not a number: " + text);
  }
  if (ec == std::errc::result_out_of_range) {
    throw std::invalid_argument("Config: key '" + key +
                                "' is out of double range: " + text);
  }
  if (ptr != last) {
    throw std::invalid_argument("Config: trailing junk in '" + key +
                                "': " + text);
  }
  return value;
}

std::int64_t Config::get_int(const std::string& key,
                             std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& text = it->second;
  const char* last = text.data() + text.size();
  const char* first = skip_plus(text.data(), last);
  std::int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || first == last) {
    throw std::invalid_argument("Config: key '" + key +
                                "' is not an integer: " + text);
  }
  if (ptr != last) {
    throw std::invalid_argument("Config: trailing junk in '" + key +
                                "': " + text);
  }
  return value;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string v = lower(it->second);
  if (v == "true" || v == "yes" || v == "on" || v == "1") return true;
  if (v == "false" || v == "no" || v == "off" || v == "0") return false;
  throw std::invalid_argument("Config: key '" + key +
                              "' is not a boolean: " + it->second);
}

}  // namespace imobif::util
