#include "util/args.hpp"

namespace imobif::util {

Args::Args(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    if (arg.size() == 2) {  // bare "--": everything after is positional
      for (++i; i < argc; ++i) positional_.push_back(argv[i]);
      break;
    }
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      flags_.set(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    // `--key value` unless the next token is itself a flag (then boolean).
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_.set(arg, argv[++i]);
    } else {
      flags_.set(arg, "true");
    }
  }
}

std::vector<std::string> Args::keys() const {
  std::vector<std::string> out = flags_.keys();
  for (std::string& key : out) key.erase(0, 2);
  return out;
}

}  // namespace imobif::util
