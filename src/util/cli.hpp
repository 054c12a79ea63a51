#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace bpm {

/// Minimal GNU-style command line parser shared by the bench harnesses and
/// example binaries.
///
/// Supported syntax: `--name value`, `--name=value`, and boolean `--flag`.
/// Unknown flags raise `std::invalid_argument` so that typos in experiment
/// sweeps fail loudly instead of silently running the default configuration.
///
/// ```
/// CliParser cli("fig1_gr_strategies", "Reproduces paper Figure 1");
/// cli.add_flag("verbose", "print per-instance rows");
/// cli.add_option("scale", "instance scale multiplier", "1.0");
/// cli.parse(argc, argv);
/// double scale = cli.get_double("scale");
/// ```
class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Register a boolean flag (defaults to false).
  void add_flag(const std::string& name, const std::string& help);

  /// Register a valued option with a default.
  void add_option(const std::string& name, const std::string& help,
                  const std::string& default_value);

  /// Parse argv.  Calls `std::exit(0)` after printing usage if `--help` is
  /// present.  Throws `std::invalid_argument` on unknown or malformed flags.
  void parse(int argc, const char* const* argv);

  [[nodiscard]] bool get_flag(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  /// `get_int` that also throws `std::invalid_argument`, naming the flag,
  /// when the value lies outside [min, max] — so a caller narrowing it to
  /// an unsigned or smaller type never wraps.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t min, std::int64_t max) const;
  [[nodiscard]] double get_double(const std::string& name) const;

  /// True if a flag or option with this name was registered.
  [[nodiscard]] bool has(const std::string& name) const {
    return entries_.contains(name);
  }

  /// Positional arguments, in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  [[nodiscard]] std::string usage() const;

 private:
  struct Entry {
    std::string help;
    std::string value;
    bool is_flag = false;
    bool flag_set = false;
  };

  const Entry& find(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::map<std::string, Entry> entries_;
  std::vector<std::string> order_;
  std::vector<std::string> positional_;
};

// Forward declaration (core/solver.hpp); cli.cpp provides the definitions.
struct SolverSpec;

/// Registers `--algo <spec,spec,...>` selecting solvers by `SolverSpec`
/// grammar — registry names with optional tuning options, e.g.
/// `g-pr-shr:k=1.5,hk` — plus the `--list-algos` flag that prints every
/// registered solver with its capabilities and exits.
void add_algo_flag(CliParser& cli, const std::string& default_value);

/// The parsed `--algo` spec list, validated against the registry — an
/// unknown name, unknown option, or malformed spec throws
/// `std::invalid_argument` naming the valid choices.
[[nodiscard]] std::vector<SolverSpec> solver_specs_from_cli(
    const CliParser& cli);

/// If `--list-algos` was registered (see `add_algo_flag`) and passed,
/// prints the registry — names, `SolverCaps` columns, aliases — and exits
/// with status 0.  Call right after `parse`.
void exit_if_list_algos(const CliParser& cli);

}  // namespace bpm
