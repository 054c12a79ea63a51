#include "util/cli.hpp"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "core/solver.hpp"

namespace bpm {

CliParser::CliParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void CliParser::add_flag(const std::string& name, const std::string& help) {
  entries_[name] = Entry{help, "false", /*is_flag=*/true, /*flag_set=*/false};
  order_.push_back(name);
}

void CliParser::add_option(const std::string& name, const std::string& help,
                           const std::string& default_value) {
  entries_[name] = Entry{help, default_value, /*is_flag=*/false,
                         /*flag_set=*/false};
  order_.push_back(name);
}

void CliParser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << usage();
      std::exit(0);
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string name = arg.substr(2);
    std::optional<std::string> inline_value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      inline_value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    auto it = entries_.find(name);
    if (it == entries_.end())
      throw std::invalid_argument(program_ + ": unknown flag --" + name);
    Entry& e = it->second;
    if (e.is_flag) {
      if (inline_value)
        throw std::invalid_argument(program_ + ": flag --" + name +
                                    " does not take a value");
      e.value = "true";
      e.flag_set = true;
    } else if (inline_value) {
      e.value = *inline_value;
    } else {
      if (i + 1 >= argc)
        throw std::invalid_argument(program_ + ": flag --" + name +
                                    " expects a value");
      e.value = argv[++i];
    }
  }
}

const CliParser::Entry& CliParser::find(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end())
    throw std::invalid_argument(program_ + ": flag --" + name +
                                " was never registered");
  return it->second;
}

bool CliParser::get_flag(const std::string& name) const {
  const Entry& e = find(name);
  return e.value == "true";
}

const std::string& CliParser::get_string(const std::string& name) const {
  return find(name).value;
}

std::int64_t CliParser::get_int(const std::string& name) const {
  const Entry& e = find(name);
  try {
    std::size_t pos = 0;
    auto v = std::stoll(e.value, &pos);
    if (pos != e.value.size()) throw std::invalid_argument("trailing chars");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(program_ + ": --" + name + "=" + e.value +
                                " is not an integer");
  }
}

std::int64_t CliParser::get_int(const std::string& name, std::int64_t min,
                                std::int64_t max) const {
  const std::int64_t v = get_int(name);
  if (v < min || v > max)
    throw std::invalid_argument(program_ + ": --" + name + "=" +
                                find(name).value + " is outside [" +
                                std::to_string(min) + ", " +
                                std::to_string(max) + "]");
  return v;
}

double CliParser::get_double(const std::string& name) const {
  const Entry& e = find(name);
  try {
    std::size_t pos = 0;
    double v = std::stod(e.value, &pos);
    if (pos != e.value.size()) throw std::invalid_argument("trailing chars");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument(program_ + ": --" + name + "=" + e.value +
                                " is not a number");
  }
}

void add_algo_flag(CliParser& cli, const std::string& default_value) {
  cli.add_option("algo",
                 "comma-separated solver specs, name[:key=val,key=val] — "
                 "e.g. g-pr-shr:k=1.5,hk (names: " +
                     SolverRegistry::instance().names_csv() + ")",
                 default_value);
  cli.add_flag("list-algos",
               "print the registered solvers with their capabilities and "
               "exit");
}

std::vector<SolverSpec> solver_specs_from_cli(const CliParser& cli) {
  std::vector<SolverSpec> specs =
      SolverSpec::parse_list(cli.get_string("algo"));
  if (specs.empty())
    throw std::invalid_argument("--algo needs at least one solver spec (" +
                                SolverRegistry::instance().names_csv() + ")");
  // Validate names and options now — a typo should fail before the harness
  // spends minutes building its instance suite.
  for (const SolverSpec& spec : specs) (void)spec.instantiate();
  return specs;
}

void exit_if_list_algos(const CliParser& cli) {
  if (!cli.has("list-algos") || !cli.get_flag("list-algos")) return;
  const SolverRegistry& registry = SolverRegistry::instance();
  std::cout << "name         device  exact\n";
  for (const std::string& name : registry.names()) {
    const SolverCaps caps = registry.create(name)->caps();
    const auto yn = [](bool b) { return b ? "yes" : "no "; };
    std::cout << name << std::string(name.size() < 13 ? 13 - name.size() : 1, ' ')
              << yn(caps.needs_device) << "     " << yn(caps.exact) << "\n";
  }
  for (const auto& [alias, canonical] : registry.alias_list())
    std::cout << "alias: " << alias << " -> " << canonical << "\n";
  std::cout << "spec syntax: name[:key=val,key=val], e.g. g-pr-shr:k=1.5\n";
  std::exit(0);
}

std::string CliParser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nOptions:\n";
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    os << "  --" << name;
    if (!e.is_flag) os << " <value>  (default: " << e.value << ")";
    os << "\n      " << e.help << "\n";
  }
  os << "  --help\n      print this message\n";
  return os.str();
}

}  // namespace bpm
