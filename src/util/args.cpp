#include "util/args.hpp"

#include <charconv>
#include <optional>
#include <stdexcept>

namespace imobif::util {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) {  // bare "--": everything after is positional
      for (++i; i < argc; ++i) positional_.push_back(argv[i]);
      break;
    }
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` unless the next token is itself a flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

std::string Args::get_string(const std::string& key,
                             const std::string& fallback) const {
  const auto it = flags_.find(key);
  return it == flags_.end() ? fallback : it->second;
}

namespace {

/// Parses all of `text` as a T; nullopt on junk, trailing junk or range.
template <typename T>
std::optional<T> parse_whole(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

double Args::get_double(const std::string& key, double fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const auto value = parse_whole<double>(it->second);
  if (!value) {
    throw std::invalid_argument("Args: --" + key +
                                " expects a number, got " + it->second);
  }
  return *value;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const auto value = parse_whole<std::int64_t>(it->second);
  if (!value) {
    throw std::invalid_argument("Args: --" + key +
                                " expects an integer, got " + it->second);
  }
  return *value;
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  const auto it = flags_.find(key);
  if (it == flags_.end()) return fallback;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("Args: --" + key +
                              " expects a boolean, got " + v);
}

std::vector<std::string> Args::keys() const {
  std::vector<std::string> out;
  out.reserve(flags_.size());
  for (const auto& [key, value] : flags_) out.push_back(key);
  return out;
}

}  // namespace imobif::util
