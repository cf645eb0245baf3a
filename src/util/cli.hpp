// Minimal command-line flag parsing for the bench / example binaries.
// Supports `--name=value`, `--name value` and boolean `--name`.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace lpt::util {

/// Report a flag value the program cannot honour and exit 2:
/// `error: --name expects <expected>, got "value"`.  A bad flag must stop
/// the run, not quietly measure something else.
[[noreturn]] void invalid_flag_value(const std::string& name,
                                     const std::string& value,
                                     const std::string& expected);

class Cli {
 public:
  Cli(int argc, char** argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Positional (non-flag) arguments.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Program name (argv[0]).
  const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace lpt::util
