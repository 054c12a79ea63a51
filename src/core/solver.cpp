#include "core/solver.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/g_hk.hpp"
#include "core/g_pr.hpp"
#include "core/options.hpp"
#include "matching/greedy.hpp"
#include "matching/hkdw.hpp"
#include "matching/hopcroft_karp.hpp"
#include "matching/pothen_fan.hpp"
#include "matching/seq_pr.hpp"
#include "matching/verify.hpp"
#include "multicore/pdbfs.hpp"
#include "obs/trace.hpp"
#include "policy/auto_solver.hpp"
#include "util/timer.hpp"

namespace bpm {
namespace {

bool parse_bool(std::string_view key, std::string_view value) {
  if (value == "1" || value == "true" || value == "on") return true;
  if (value == "0" || value == "false" || value == "off") return false;
  throw std::invalid_argument("option '" + std::string(key) +
                              "' wants a boolean, got '" + std::string(value) +
                              "'");
}

[[noreturn]] void bad_value(std::string_view key, std::string_view value,
                            std::string_view want) {
  throw std::invalid_argument("option '" + std::string(key) + "' wants " +
                              std::string(want) + ", got '" +
                              std::string(value) + "'");
}

/// The whole token as one finite number: no trailing garbage, no
/// nan/inf, no out-of-range literal.
double parse_double(std::string_view key, std::string_view value) {
  double out = 0.0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, out);
  if (ec != std::errc{} || ptr != end || !std::isfinite(out))
    bad_value(key, value, "a number");
  return out;
}

double parse_positive(std::string_view key, std::string_view value) {
  const double out = parse_double(key, value);
  if (out <= 0.0) bad_value(key, value, "a number > 0");
  return out;
}

device::Device& required_device(const SolveContext& ctx,
                                const std::string& solver) {
  if (ctx.device == nullptr)
    throw std::invalid_argument("solver '" + solver +
                                "' needs a device; set SolveContext::device");
  return *ctx.device;
}

// ---- device push-relabel (G-PR family) -------------------------------------

class GprSolver final : public Solver {
 public:
  GprSolver(std::string name, gpu::GprVariant variant,
            gpu::BalanceMode balance = gpu::BalanceMode::kOff)
      : name_(std::move(name)) {
    options_.variant = variant;
    options_.balance = balance;
  }

  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] SolverCaps caps() const override {
    return {.needs_device = true, .multicore = false, .deterministic = false,
            .exact = true,
            .balanced = options_.balance != gpu::BalanceMode::kOff};
  }

  bool set_option(std::string_view key, std::string_view value) override {
    if (key == "k") {
      options_.k = parse_positive(key, value);
    } else if (key == "strategy") {
      if (value == "adaptive")
        options_.strategy = gpu::RelabelStrategy::kAdaptive;
      else if (value == "fix" || value == "fixed")
        options_.strategy = gpu::RelabelStrategy::kFixed;
      else
        throw std::invalid_argument("option 'strategy' wants adaptive|fix");
    } else if (key == "shrink-threshold") {
      const double t = parse_double(key, value);
      if (t < 0 || t > std::numeric_limits<graph::index_t>::max() ||
          t != std::trunc(t))
        bad_value(key, value, "an integer in [0, 2^31-1]");
      options_.shrink_threshold = static_cast<graph::index_t>(t);
    } else if (key == "initial-gr") {
      options_.initial_global_relabel = parse_bool(key, value);
    } else if (key == "balance") {
      if (value == "auto")
        options_.balance = gpu::BalanceMode::kAuto;
      else
        options_.balance = parse_bool(key, value) ? gpu::BalanceMode::kOn
                                                  : gpu::BalanceMode::kOff;
    } else if (key == "balance-skew") {
      options_.balance_skew_threshold = parse_positive(key, value);
    } else {
      return false;
    }
    return true;
  }

  [[nodiscard]] SolveResult run(const SolveContext& ctx,
                                const graph::BipartiteGraph& g,
                                const matching::Matching& init) const override {
    device::Device& dev = required_device(ctx, name_);
    // The context's tracer rides on the device stream: the per-launch and
    // phase spans read it from there.
    if (ctx.tracer != nullptr && dev.tracer() == nullptr)
      dev.set_tracer(ctx.tracer);
    Timer t;
    gpu::GprResult r = gpu::g_pr(dev, g, init, options_);
    SolveResult out{std::move(r.matching), {}};
    out.stats.wall_ms = t.elapsed_ms();
    out.stats.cardinality = out.matching.cardinality();
    out.stats.modeled_ms = r.stats.modeled_ms;
    out.stats.device_launches = r.stats.device_launches;
    out.stats.iterations = r.stats.loops;
    std::ostringstream d;
    d << options_.describe() << ": " << r.stats.global_relabels
      << " global relabels, " << r.stats.shrinks << " shrinks, ";
    if (options_.balance == gpu::BalanceMode::kAuto)
      d << "skew " << r.stats.balance_skew << " -> "
        << (r.stats.balanced ? "balanced" : "vertex-parallel") << ", ";
    if (r.stats.balanced)
      d << r.stats.frontier_builds << " frontier builds, ";
    d << r.stats.device_launches << " launches";
    out.stats.detail = d.str();
    return out;
  }

 private:
  std::string name_;
  gpu::GprOptions options_;
};

// ---- device Hopcroft–Karp (G-HK / G-HKDW) ----------------------------------

class GhkSolver final : public Solver {
 public:
  GhkSolver(std::string name, bool duff_wiberg)
      : name_(std::move(name)), duff_wiberg_(duff_wiberg) {}

  [[nodiscard]] std::string name() const override { return name_; }

  [[nodiscard]] SolverCaps caps() const override {
    return {.needs_device = true, .multicore = false, .deterministic = false,
            .exact = true};
  }

  [[nodiscard]] SolveResult run(const SolveContext& ctx,
                                const graph::BipartiteGraph& g,
                                const matching::Matching& init) const override {
    device::Device& dev = required_device(ctx, name_);
    const std::uint64_t launches_before = dev.launches();
    Timer t;
    gpu::GhkResult r = gpu::g_hk(dev, g, init, {.duff_wiberg = duff_wiberg_});
    SolveResult out{std::move(r.matching), {}};
    out.stats.wall_ms = t.elapsed_ms();
    out.stats.cardinality = out.matching.cardinality();
    out.stats.modeled_ms = r.stats.modeled_ms;
    out.stats.device_launches =
        static_cast<std::int64_t>(dev.launches() - launches_before);
    out.stats.iterations = r.stats.phases;
    std::ostringstream d;
    d << r.stats.phases << " phases, " << r.stats.bfs_level_kernels
      << " BFS kernels, " << r.stats.sequential_fallbacks
      << " sequential fallbacks";
    out.stats.detail = d.str();
    return out;
  }

 private:
  std::string name_;
  bool duff_wiberg_;
};

// ---- multicore P-DBFS ------------------------------------------------------

class PdbfsSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "p-dbfs"; }

  [[nodiscard]] SolverCaps caps() const override {
    return {.needs_device = false, .multicore = true, .deterministic = false,
            .exact = true};
  }

  [[nodiscard]] SolveResult run(const SolveContext& ctx,
                                const graph::BipartiteGraph& g,
                                const matching::Matching& init) const override {
    Timer t;
    mc::PdbfsResult r = mc::p_dbfs(g, init, {.num_threads = ctx.threads});
    SolveResult out{std::move(r.matching), {}};
    out.stats.wall_ms = t.elapsed_ms();
    out.stats.cardinality = out.matching.cardinality();
    out.stats.iterations = r.stats.rounds;
    std::ostringstream d;
    d << r.stats.rounds << " rounds, " << r.stats.augmentations
      << " augmentations, " << r.stats.blocked_searches << " blocked searches";
    out.stats.detail = d.str();
    return out;
  }
};

// ---- sequential matchers ---------------------------------------------------

class SeqPrSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "seq-pr"; }

  [[nodiscard]] SolverCaps caps() const override { return {}; }

  bool set_option(std::string_view key, std::string_view value) override {
    if (key == "k")
      options_.global_relabel_k = parse_positive(key, value);
    else if (key == "gap")
      options_.gap_relabeling = parse_bool(key, value);
    else if (key == "initial-gr")
      options_.initial_global_relabel = parse_bool(key, value);
    else
      return false;
    return true;
  }

  [[nodiscard]] SolveResult run(const SolveContext&,
                                const graph::BipartiteGraph& g,
                                const matching::Matching& init) const override {
    Timer t;
    matching::SeqPrStats stats;
    SolveResult out{matching::seq_push_relabel(g, init, options_, &stats), {}};
    out.stats.wall_ms = t.elapsed_ms();
    out.stats.cardinality = out.matching.cardinality();
    out.stats.iterations = stats.pushes;
    std::ostringstream d;
    d << stats.pushes << " pushes, " << stats.global_relabels
      << " global relabels, " << stats.gap_retired << " gap-retired";
    out.stats.detail = d.str();
    return out;
  }

 private:
  matching::SeqPrOptions options_;
};

class HkSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "hk"; }
  [[nodiscard]] SolverCaps caps() const override { return {}; }

  [[nodiscard]] SolveResult run(const SolveContext&,
                                const graph::BipartiteGraph& g,
                                const matching::Matching& init) const override {
    Timer t;
    matching::HkStats stats;
    SolveResult out{matching::hopcroft_karp(g, init, &stats), {}};
    out.stats.wall_ms = t.elapsed_ms();
    out.stats.cardinality = out.matching.cardinality();
    out.stats.iterations = stats.phases;
    out.stats.detail = std::to_string(stats.phases) + " phases, " +
                       std::to_string(stats.augmentations) + " augmentations";
    return out;
  }
};

class HkdwSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "hkdw"; }
  [[nodiscard]] SolverCaps caps() const override { return {}; }

  [[nodiscard]] SolveResult run(const SolveContext&,
                                const graph::BipartiteGraph& g,
                                const matching::Matching& init) const override {
    Timer t;
    matching::HkdwStats stats;
    SolveResult out{matching::hkdw(g, init, &stats), {}};
    out.stats.wall_ms = t.elapsed_ms();
    out.stats.cardinality = out.matching.cardinality();
    out.stats.iterations = stats.phases;
    out.stats.detail = std::to_string(stats.phases) + " phases, " +
                       std::to_string(stats.dw_augmentations) +
                       " DW augmentations";
    return out;
  }
};

class PfSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "pf"; }
  [[nodiscard]] SolverCaps caps() const override { return {}; }

  [[nodiscard]] SolveResult run(const SolveContext&,
                                const graph::BipartiteGraph& g,
                                const matching::Matching& init) const override {
    Timer t;
    matching::PfStats stats;
    SolveResult out{matching::pothen_fan(g, init, &stats), {}};
    out.stats.wall_ms = t.elapsed_ms();
    out.stats.cardinality = out.matching.cardinality();
    out.stats.iterations = stats.phases;
    out.stats.detail = std::to_string(stats.phases) + " phases, " +
                       std::to_string(stats.augmentations) + " augmentations";
    return out;
  }
};

// ---- initialisation heuristics as (inexact) solvers ------------------------

class GreedySolver final : public Solver {
 public:
  explicit GreedySolver(bool karp_sipser) : karp_sipser_(karp_sipser) {}

  [[nodiscard]] std::string name() const override {
    return karp_sipser_ ? "karp-sipser" : "greedy";
  }

  [[nodiscard]] SolverCaps caps() const override {
    return {.needs_device = false, .multicore = false, .deterministic = true,
            .exact = false};
  }

  [[nodiscard]] SolveResult run(const SolveContext&,
                                const graph::BipartiteGraph& g,
                                const matching::Matching&) const override {
    Timer t;
    SolveResult out{karp_sipser_ ? matching::karp_sipser(g)
                                 : matching::cheap_matching(g),
                    {}};
    out.stats.wall_ms = t.elapsed_ms();
    out.stats.cardinality = out.matching.cardinality();
    return out;
  }

 private:
  bool karp_sipser_;
};

}  // namespace

bool Solver::set_option(std::string_view, std::string_view) { return false; }

// ---- SolverSpec ------------------------------------------------------------

namespace {

[[noreturn]] void malformed_spec(std::string_view spec,
                                 const std::string& why) {
  throw std::invalid_argument(
      "malformed solver spec '" + std::string(spec) + "': " + why +
      " (want name or name:key=val,key=val; have: " +
      SolverRegistry::instance().names_csv() + ")");
}

std::pair<std::string, std::string> parse_option(std::string_view spec,
                                                 std::string_view token) {
  const std::size_t eq = token.find('=');
  if (eq == std::string_view::npos)
    malformed_spec(spec, "option '" + std::string(token) + "' has no '='");
  if (eq == 0) malformed_spec(spec, "option with empty key");
  return {std::string(token.substr(0, eq)), std::string(token.substr(eq + 1))};
}

}  // namespace

SolverSpec SolverSpec::parse(std::string_view spec) {
  SolverSpec out;
  const std::size_t colon = spec.find(':');
  out.name = std::string(spec.substr(0, colon));
  if (out.name.empty()) malformed_spec(spec, "empty solver name");
  if (out.name.find('=') != std::string::npos)
    malformed_spec(spec, "option '" + out.name + "' without a solver name");
  if (colon == std::string_view::npos) return out;
  std::string_view rest = spec.substr(colon + 1);
  if (rest.empty()) malformed_spec(spec, "':' with no options after it");
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view token = rest.substr(0, comma);
    if (token.empty()) malformed_spec(spec, "empty option");
    out.options.push_back(parse_option(spec, token));
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
    if (rest.empty()) malformed_spec(spec, "trailing ','");
  }
  return out;
}

std::vector<SolverSpec> SolverSpec::parse_list(std::string_view list) {
  std::vector<SolverSpec> out;
  std::string_view rest = list;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    const std::string_view token = rest.substr(0, comma);
    // A bare key=val token (no ':') continues the previous spec's options;
    // anything else opens a new spec.
    if (token.empty()) {
      malformed_spec(list, "empty solver spec (doubled or trailing ','?)");
    } else if (token.find(':') == std::string_view::npos &&
               token.find('=') != std::string_view::npos) {
      if (out.empty())
        malformed_spec(list, "option '" + std::string(token) +
                                 "' before any solver name");
      out.back().options.push_back(parse_option(list, token));
    } else {
      out.push_back(parse(token));
    }
    if (comma == std::string_view::npos) break;
    rest = rest.substr(comma + 1);
    if (rest.empty()) malformed_spec(list, "trailing ','");
  }
  return out;
}

std::string SolverSpec::canonical() const {
  std::string out = name;
  auto sorted = options;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += sorted[i].first + "=" + sorted[i].second;
  }
  return out;
}

std::unique_ptr<Solver> SolverSpec::instantiate() const {
  std::unique_ptr<Solver> solver = SolverRegistry::instance().create(name);
  for (const auto& [key, value] : options)
    if (!solver->set_option(key, value))
      throw std::invalid_argument("solver '" + name +
                                  "' does not understand option '" + key +
                                  "' (in spec '" + canonical() + "')");
  return solver;
}

SolverRegistry::SolverRegistry() {
  add("g-pr-shr", [] {
    return std::make_unique<GprSolver>("g-pr-shr", gpu::GprVariant::kShrink);
  });
  add("g-pr-noshr", [] {
    return std::make_unique<GprSolver>("g-pr-noshr",
                                       gpu::GprVariant::kNoShrink);
  });
  add("g-pr-first", [] {
    return std::make_unique<GprSolver>("g-pr-first", gpu::GprVariant::kFirst);
  });
  add("g-pr-wb", [] {
    // Workload-balanced G-PR: edge-balanced push over a per-loop compacted
    // frontier (GprOptions::balance).  Defaults to balance=auto — the
    // measured degree skew of the unmatched columns decides per solve, so
    // uniform instances keep the vertex-parallel path's speed; force with
    // balance=1 / balance=0.
    return std::make_unique<GprSolver>("g-pr-wb", gpu::GprVariant::kShrink,
                                       gpu::BalanceMode::kAuto);
  });
  add("g-hk", [] { return std::make_unique<GhkSolver>("g-hk", false); });
  add("g-hkdw", [] { return std::make_unique<GhkSolver>("g-hkdw", true); });
  add("p-dbfs", [] { return std::make_unique<PdbfsSolver>(); });
  add("seq-pr", [] { return std::make_unique<SeqPrSolver>(); });
  add("hk", [] { return std::make_unique<HkSolver>(); });
  add("hkdw", [] { return std::make_unique<HkdwSolver>(); });
  add("pf", [] { return std::make_unique<PfSolver>(); });
  add("greedy", [] { return std::make_unique<GreedySolver>(false); });
  add("karp-sipser", [] { return std::make_unique<GreedySolver>(true); });
  add("auto", [] {
    // Feature-driven adaptive selection (`policy::AutoSolver`): resolves
    // to a concrete registered spec per instance from the calibrated cost
    // model + online estimates.  `auto:model=<path>,explore=<p>` tunes it.
    return std::make_unique<policy::AutoSolver>();
  });
  // The paper's shorthand spellings.
  add_alias("g-pr", "g-pr-shr");
  add_alias("pr", "seq-pr");
}

SolverRegistry& SolverRegistry::instance() {
  static SolverRegistry registry;
  return registry;
}

void SolverRegistry::add(const std::string& name, Factory factory) {
  if (factories_.contains(name) || aliases_.contains(name))
    throw std::invalid_argument("solver '" + name + "' already registered");
  factories_.emplace(name, std::move(factory));
}

void SolverRegistry::add_alias(const std::string& alias,
                               const std::string& canonical) {
  if (factories_.contains(alias) || aliases_.contains(alias))
    throw std::invalid_argument("solver '" + alias + "' already registered");
  if (!factories_.contains(canonical))
    throw std::invalid_argument("alias target '" + canonical + "' unknown");
  aliases_.emplace(alias, canonical);
}

bool SolverRegistry::contains(const std::string& name) const {
  return factories_.contains(name) || aliases_.contains(name);
}

std::unique_ptr<Solver> SolverRegistry::create(const std::string& name) const {
  const auto alias = aliases_.find(name);
  const auto it =
      factories_.find(alias == aliases_.end() ? name : alias->second);
  if (it == factories_.end())
    throw std::invalid_argument("unknown solver '" + name + "' (have: " +
                                names_csv() + ")");
  return it->second();
}

std::vector<std::string> SolverRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;  // std::map iteration is already sorted
}

std::vector<std::pair<std::string, std::string>> SolverRegistry::alias_list()
    const {
  return {aliases_.begin(), aliases_.end()};  // std::map: sorted by alias
}

std::string SolverRegistry::names_csv() const {
  std::string out;
  for (const auto& name : names()) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

SolveResult solve(const std::string& solver_name, const SolveContext& ctx,
                  const graph::BipartiteGraph& g,
                  const matching::Matching& init) {
  return SolverRegistry::instance().create(solver_name)->run(ctx, g, init);
}

JobOutcome run_verified(const Solver& solver, const SolveContext& ctx,
                        const graph::BipartiteGraph& g,
                        const matching::Matching& init, bool verify) {
  JobOutcome out;
  try {
    SolveResult result = solver.run(ctx, g, init);
    out.stats = std::move(result.stats);
    out.ok = true;
    if (!verify) return out;
    auto sp = obs::span(ctx.tracer, "verify", "pipeline");
    if (!result.matching.is_valid(g)) {
      out.ok = false;
      out.error = "invalid matching: " + result.matching.first_violation(g);
    } else if (out.stats.cardinality != result.matching.cardinality()) {
      out.ok = false;
      out.error = "stats report cardinality " +
                  std::to_string(out.stats.cardinality) +
                  " but the matching has " +
                  std::to_string(result.matching.cardinality());
    } else if (solver.caps().exact &&
               !matching::is_maximum(g, result.matching)) {
      // Berge: a valid matching with no augmenting path is maximum.
      out.ok = false;
      out.error = "Berge certificate failed: an augmenting path exists";
    }
    if (sp) {
      sp.arg("solver", solver.name());
      sp.arg("ok", out.ok);
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

}  // namespace bpm
