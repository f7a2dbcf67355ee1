// Minimal command-line option parser used by bench binaries and examples.
//
// Supports `--name value`, `--name=value`, and boolean flags `--name`.
// Each program names the flags it reads; `--help` or any other flag prints
// them and exits, so a mistyped flag never runs the program on defaults.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace tcgrid::util {

/// Parsed command line: option map plus positional arguments.
class Cli {
 public:
  /// `accepted` lists every flag the program reads, without the leading
  /// dashes; an entry ending in '*' accepts every flag with that prefix.
  /// `--help`, or a flag `accepted` does not cover, prints the accepted
  /// flags to stderr and exits with status 2.
  Cli(int argc, const char* const* argv, const std::vector<std::string>& accepted);

  /// True if `--name` was present (with or without a value).
  [[nodiscard]] bool has(const std::string& name) const;

  /// Value of `--name`, if one was supplied.
  [[nodiscard]] std::optional<std::string> value(const std::string& name) const;

  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;
  [[nodiscard]] long get_long(const std::string& name, long fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback = false) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Program name (argv[0]).
  [[nodiscard]] const std::string& program() const noexcept { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;  // name -> value ("" for bare flags)
  std::vector<std::string> positional_;
};

}  // namespace tcgrid::util
