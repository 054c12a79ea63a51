#pragma once

#include <memory>
#include <string>
#include <utility>

#include "core/solver.hpp"
#include "policy/cost_model.hpp"
#include "policy/features.hpp"

namespace bpm::policy {

/// The `auto` solver: resolves to a concrete registered spec per instance
/// from its features and runs it.  Registered in `bpm::SolverRegistry`
/// under "auto", so every harness `--algo auto`, `mtx_matcher`, the
/// pipeline, and the service sweep it with zero per-call-site code.
///
/// Resolution is a pure table lookup: the cheapest `us_per_edge` spec of
/// the instance's (nearest) feature bucket in the offline `CostModel`.
/// The same features and the same model always give the same spec; no
/// served traffic changes it.  A new calibration ships as a regenerated
/// `default_model.inc` (`auto_policy --emit-inc`).  `auto` takes no
/// spec options.
///
/// The serving layer resolves BEFORE dispatch (`resolve` on the admitted
/// instance's cached features) and swaps in the concrete solver + spec,
/// so an `auto` request and an explicit request for the same concrete
/// spec share result-cache entries; everywhere else `run` resolves
/// internally and reports the choice in `SolveStats::detail`.
class AutoSolver final : public Solver {
 public:
  /// Resolves against the embedded calibration table.
  AutoSolver() : AutoSolver(CostModel::embedded_default()) {}
  explicit AutoSolver(CostModel model) : model_(std::move(model)) {}

  [[nodiscard]] std::string name() const override { return "auto"; }

  [[nodiscard]] SolverCaps caps() const override {
    // May resolve to any exact solver: claim the device (always provided
    // by pipelines/harnesses/services).
    return {.needs_device = true};
  }

  struct Resolved {
    SolverSpec spec;  ///< concrete: never `auto`
    std::unique_ptr<Solver> solver;
    std::string bucket;
    bool fallback = false;  ///< no calibrated bucket: resolved to g-pr-wb
  };

  /// Resolves the concrete solver for an instance with features `f`:
  /// the cheapest spec of the model's (nearest) bucket, ties to the first
  /// in spec order.  Throws only when the model names an unregistered
  /// spec.
  [[nodiscard]] Resolved resolve(const InstanceFeatures& f) const;

 protected:
  /// Features → resolve → the chosen solver's `solve_impl` (this solver's
  /// `run` already did the bookkeeping); prepends the choice to
  /// `SolveStats::detail`.  `run` charges the whole of it (features,
  /// resolution and solve): what the caller waited for.
  [[nodiscard]] Output solve_impl(
      const SolveContext& ctx, const graph::BipartiteGraph& g,
      const matching::ValidMatching& init) const override;

 private:
  CostModel model_;
};

}  // namespace bpm::policy
