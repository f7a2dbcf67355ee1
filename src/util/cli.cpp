#include "util/cli.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace tcgrid::util {

namespace {

/// Whether an accepted-flag entry covers `name` ("x*" covers every "x...").
bool covers(std::string_view entry, const std::string& name) {
  if (entry.ends_with('*')) return name.starts_with(entry.substr(0, entry.size() - 1));
  return entry == name;
}

[[noreturn]] void usage(const std::string& program,
                        const std::vector<std::string>& accepted) {
  std::fprintf(stderr, "usage: %s [flags]\naccepted flags:", program.c_str());
  for (const std::string& flag : accepted) std::fprintf(stderr, " --%s", flag.c_str());
  std::fputc('\n', stderr);
  std::exit(2);
}

}  // namespace

Cli::Cli(int argc, const char* const* argv, const std::vector<std::string>& accepted) {
  program_ = argc > 0 ? argv[0] : "";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      options_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` form: consume the next token as the value unless it
    // looks like another option.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      options_[body] = argv[++i];
    } else {
      options_[body] = "";
    }
  }
  for (const auto& option : options_) {
    const std::string& name = option.first;
    if (name == "help") usage(program_, accepted);
    if (std::none_of(accepted.begin(), accepted.end(),
                     [&](const std::string& entry) { return covers(entry, name); })) {
      std::fprintf(stderr, "%s: unknown flag --%s\n", program_.c_str(), name.c_str());
      usage(program_, accepted);
    }
  }
}

bool Cli::has(const std::string& name) const { return options_.count(name) > 0; }

std::optional<std::string> Cli::value(const std::string& name) const {
  auto it = options_.find(name);
  if (it == options_.end()) return std::nullopt;
  return it->second;
}

std::string Cli::get(const std::string& name, const std::string& fallback) const {
  auto v = value(name);
  return (v && !v->empty()) ? *v : fallback;
}

long Cli::get_long(const std::string& name, long fallback) const {
  auto v = value(name);
  if (!v || v->empty()) return fallback;
  return std::strtol(v->c_str(), nullptr, 10);
}

double Cli::get_double(const std::string& name, double fallback) const {
  auto v = value(name);
  if (!v || v->empty()) return fallback;
  return std::strtod(v->c_str(), nullptr);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  auto v = value(name);
  if (!v) return fallback;
  if (v->empty()) return true;  // bare `--flag`
  return *v == "1" || *v == "true" || *v == "yes" || *v == "on";
}

}  // namespace tcgrid::util
