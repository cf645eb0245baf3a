#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>

namespace lpt::util {

// A numeric flag that fails to parse must be a loud error, not a silent
// truncation: strtoll("12x") is 12 and strtoll("abc") is 0, so a typo like
// --imax=12x or --reps=abc would quietly run the wrong experiment (and the
// service front end feeds request sizes through this same parser).
void invalid_flag_value(const std::string& name, const std::string& value,
                        const std::string& expected) {
  std::fprintf(stderr, "error: --%s expects %s, got \"%s\"\n", name.c_str(),
               expected.c_str(), value.c_str());
  std::exit(2);
}

Cli::Cli(int argc, char** argv) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
      std::string body = arg.substr(2);
      auto eq = body.find('=');
      if (eq != std::string::npos) {
        flags_[body.substr(0, eq)] = body.substr(eq + 1);
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        flags_[body] = argv[++i];
      } else {
        flags_[body] = "true";
      }
    } else {
      positional_.push_back(std::move(arg));
    }
  }
}

bool Cli::has(const std::string& name) const {
  return flags_.count(name) != 0;
}

std::string Cli::get(const std::string& name, const std::string& def) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? def : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& s = it->second;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0') {
    invalid_flag_value(name, s, "an integer");
  }
  if (errno == ERANGE) {
    invalid_flag_value(name, s, "an integer in range");
  }
  return v;
}

double Cli::get_double(const std::string& name, double def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  const std::string& s = it->second;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    invalid_flag_value(name, s, "a number");
  }
  if (errno == ERANGE) {
    invalid_flag_value(name, s, "a number in range");
  }
  return v;
}

bool Cli::get_bool(const std::string& name, bool def) const {
  auto it = flags_.find(name);
  if (it == flags_.end()) return def;
  return it->second != "false" && it->second != "0" && it->second != "no";
}

}  // namespace lpt::util
