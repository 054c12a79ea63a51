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
    return {.needs_device = true};
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
    } else {
      return false;
    }
    return true;
  }

  [[nodiscard]] Output solve_impl(
      const SolveContext& ctx, const graph::BipartiteGraph& g,
      const matching::ValidMatching& init) const override {
    gpu::GprResult r = gpu::g_pr(*ctx.device, g, init, options_);
    std::ostringstream d;
    d << options_.describe() << ": " << r.stats.global_relabels
      << " global relabels, " << r.stats.shrinks << " shrinks";
    if (options_.balance == gpu::BalanceMode::kAuto)
      d << ", skew " << r.stats.balance_skew << " -> "
        << (r.stats.balanced ? "balanced" : "vertex-parallel");
    else if (r.stats.balanced)
      d << ", balanced";
    return {std::move(r.matching), r.stats.loops, d.str()};
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
    return {.needs_device = true};
  }

  [[nodiscard]] Output solve_impl(
      const SolveContext& ctx, const graph::BipartiteGraph& g,
      const matching::ValidMatching& init) const override {
    gpu::GhkResult r =
        gpu::g_hk(*ctx.device, g, init, {.duff_wiberg = duff_wiberg_});
    std::ostringstream d;
    d << r.stats.phases << " phases, " << r.stats.bfs_level_kernels
      << " BFS kernels, " << r.stats.sequential_fallbacks
      << " sequential fallbacks";
    return {std::move(r.matching), r.stats.phases, d.str()};
  }

 private:
  std::string name_;
  bool duff_wiberg_;
};

// ---- multicore P-DBFS ------------------------------------------------------

class PdbfsSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "p-dbfs"; }

  [[nodiscard]] SolverCaps caps() const override { return {}; }

  [[nodiscard]] Output solve_impl(
      const SolveContext& ctx, const graph::BipartiteGraph& g,
      const matching::ValidMatching& init) const override {
    // Rounds are pool batches, not device launches: they add no launch
    // count and no modeled time.  Without a device the rounds run inline.
    mc::PdbfsResult r = mc::p_dbfs(
        g, init, ctx.device ? ctx.device->engine()->pool() : nullptr);
    std::ostringstream d;
    d << r.stats.rounds << " rounds, " << r.stats.augmentations
      << " augmentations, " << r.stats.blocked_searches
      << " blocked searches, " << r.stats.sequential_cleanup
      << " tail augmentations";
    return {std::move(r.matching), r.stats.rounds, d.str()};
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

  [[nodiscard]] Output solve_impl(
      const SolveContext&, const graph::BipartiteGraph& g,
      const matching::ValidMatching& init) const override {
    matching::SeqPrStats stats;
    matching::Matching m = matching::seq_push_relabel(g, init, options_, &stats);
    std::ostringstream d;
    d << stats.pushes << " pushes, " << stats.global_relabels
      << " global relabels, " << stats.gap_retired << " gap-retired";
    return {std::move(m), stats.pushes, d.str()};
  }

 private:
  matching::SeqPrOptions options_;
};

class HkSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "hk"; }
  [[nodiscard]] SolverCaps caps() const override { return {}; }

  [[nodiscard]] Output solve_impl(
      const SolveContext&, const graph::BipartiteGraph& g,
      const matching::ValidMatching& init) const override {
    matching::HkStats stats;
    matching::Matching m = matching::hopcroft_karp(g, init, &stats);
    return {std::move(m), stats.phases,
            std::to_string(stats.phases) + " phases, " +
                std::to_string(stats.augmentations) + " augmentations"};
  }
};

class HkdwSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "hkdw"; }
  [[nodiscard]] SolverCaps caps() const override { return {}; }

  [[nodiscard]] Output solve_impl(
      const SolveContext&, const graph::BipartiteGraph& g,
      const matching::ValidMatching& init) const override {
    matching::HkdwStats stats;
    matching::Matching m = matching::hkdw(g, init, &stats);
    return {std::move(m), stats.phases,
            std::to_string(stats.phases) + " phases, " +
                std::to_string(stats.dw_augmentations) + " DW augmentations"};
  }
};

class PfSolver final : public Solver {
 public:
  [[nodiscard]] std::string name() const override { return "pf"; }
  [[nodiscard]] SolverCaps caps() const override { return {}; }

  [[nodiscard]] Output solve_impl(
      const SolveContext&, const graph::BipartiteGraph& g,
      const matching::ValidMatching& init) const override {
    matching::PfStats stats;
    matching::Matching m = matching::pothen_fan(g, init, &stats);
    return {std::move(m), stats.phases,
            std::to_string(stats.phases) + " phases, " +
                std::to_string(stats.augmentations) + " augmentations"};
  }
};

// ---- initialisation heuristics as (inexact) solvers ------------------------

class GreedySolver final : public Solver {
 public:
  explicit GreedySolver(bool karp_sipser) : karp_sipser_(karp_sipser) {}

  [[nodiscard]] std::string name() const override {
    return karp_sipser_ ? "karp-sipser" : "greedy";
  }

  [[nodiscard]] SolverCaps caps() const override { return {.exact = false}; }

  [[nodiscard]] Output solve_impl(
      const SolveContext&, const graph::BipartiteGraph& g,
      const matching::ValidMatching&) const override {
    return {karp_sipser_ ? matching::karp_sipser(g)
                         : matching::cheap_matching(g),
            0, {}};
  }

 private:
  bool karp_sipser_;
};

}  // namespace

bool Solver::set_option(std::string_view, std::string_view) { return false; }

SolveResult Solver::run(const SolveContext& ctx,
                        const graph::BipartiteGraph& g,
                        const matching::ValidMatching& init) const {
  device::Device* const dev = ctx.device;
  if (dev == nullptr && caps().needs_device)
    throw std::invalid_argument("solver '" + name() +
                                "' needs a device; set SolveContext::device");
  // The context's tracer rides on the device stream: the per-launch and
  // phase spans read it from there.
  if (dev != nullptr && ctx.tracer != nullptr && dev->tracer() == nullptr)
    dev->set_tracer(ctx.tracer);
  const std::uint64_t launches_before = dev != nullptr ? dev->launches() : 0;
  const double modeled_before = dev != nullptr ? dev->modeled_ms() : 0.0;
  Timer timer;
  Output out = solve_impl(ctx, g, init);
  SolveResult result{std::move(out.matching), {}};
  result.stats.wall_ms = timer.elapsed_ms();
  if (dev != nullptr) {
    result.stats.device_launches =
        static_cast<std::int64_t>(dev->launches() - launches_before);
    result.stats.modeled_ms = dev->modeled_ms() - modeled_before;
  }
  result.stats.cardinality = result.matching.cardinality();
  result.stats.iterations = out.iterations;
  result.stats.detail = std::move(out.detail);
  return result;
}

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
    // Workload-balanced G-PR: edge-balanced push over an active list
    // compacted every loop (GprOptions::balance).  Defaults to
    // balance=auto — the measured degree skew of the unmatched columns
    // decides per solve, so uniform instances keep the vertex-parallel
    // path's speed; force with balance=1 / balance=0.
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
    // to a concrete registered spec per instance by looking its features
    // up in the calibrated cost model.  Takes no options.
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
                  const matching::ValidMatching& init) {
  return SolverRegistry::instance().create(solver_name)->run(ctx, g, init);
}

JobOutcome run_verified(const Solver& solver, const SolveContext& ctx,
                        const graph::BipartiteGraph& g,
                        const matching::ValidMatching& init, bool verify,
                        ProvenMaximum* proof) {
  JobOutcome out;
  try {
    SolveResult result = solver.run(ctx, g, init);
    out.stats = std::move(result.stats);
    out.ok = true;
    if (!verify) return out;
    auto sp = obs::span(ctx.tracer, "verify", "pipeline");
    // `init` is valid (its type), so only the pairs the solve changed need
    // an edge lookup.
    const matching::Matching::Audit audit = result.matching.audit(g, init);
    const graph::index_t size = out.stats.cardinality;
    const graph::index_t nu =
        proof != nullptr ? proof->get() : ProvenMaximum::kUnproven;
    std::string_view by;
    if (!audit.valid) {
      out.ok = false;
      out.error = "invalid matching: " + result.matching.first_violation(g);
    } else if (solver.caps().exact && nu == ProvenMaximum::kUnproven) {
      // Berge: a valid matching with no augmenting path is maximum.
      by = "berge";
      if (!matching::is_maximum(g, result.matching)) {
        out.ok = false;
        out.error = "Berge certificate failed: an augmenting path exists";
      } else if (proof != nullptr) {
        // Racing proofs of one graph all hold ν, so the first one stands.
        graph::index_t unproven = ProvenMaximum::kUnproven;
        proof->nu_.compare_exchange_strong(unproven, size);
      }
    } else if (solver.caps().exact) {
      // A valid M is maximum exactly when |M| = ν: a shorter one has an
      // augmenting path, and no valid one is longer.
      by = "proven";
      if (size < nu) {
        out.ok = false;
        out.error = "Berge certificate failed: an augmenting path exists";
      } else if (size > nu) {
        out.ok = false;
        out.error = "certificate failed: |M| = " + std::to_string(size) +
                    " exceeds the proven maximum " + std::to_string(nu);
      }
    }
    if (sp) {
      sp.arg("solver", solver.name());
      sp.arg("ok", out.ok);
      sp.arg("changed", audit.changed);
      if (!by.empty()) sp.arg("proof", by);
    }
  } catch (const std::exception& e) {
    out.ok = false;
    out.error = e.what();
  }
  return out;
}

JobOutcome run_verified(const Solver& solver, const SolveContext& ctx,
                        const graph::BipartiteGraph& g, matching::Matching init,
                        bool verify) {
  try {
    return run_verified(solver, ctx, g,
                        matching::ValidMatching(g, std::move(init)), verify);
  } catch (const std::exception& e) {
    return {.stats = {}, .ok = false, .error = e.what()};
  }
}

}  // namespace bpm
