#include "policy/auto_solver.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

namespace bpm::policy {

namespace {

/// What an empty model (or an empty bucket) resolves to.
constexpr const char* kFallbackSpec = "g-pr-wb";

}  // namespace

AutoSolver::Resolved AutoSolver::resolve(const InstanceFeatures& f) const {
  const BucketId bucket = bucket_of(f);
  Resolved out;
  out.bucket = bucket.key();
  const CostModel::SpecTable* table = model_.lookup(bucket);
  out.fallback = table == nullptr || table->empty();
  std::string best = kFallbackSpec;
  if (!out.fallback) {
    // min_element keeps the first (map-ordered) spec on ties.
    best = std::min_element(table->begin(), table->end(),
                            [](const auto& a, const auto& b) {
                              return a.second.us_per_edge <
                                     b.second.us_per_edge;
                            })
               ->first;
  }
  out.spec = SolverSpec::parse(best);
  out.solver = out.spec.instantiate();
  return out;
}

AutoSolver::Output AutoSolver::solve_impl(
    const SolveContext& ctx, const graph::BipartiteGraph& g,
    const matching::ValidMatching& init) const {
  const Resolved resolved = resolve(compute_features(g, init.cardinality()));
  Output out = solve_with(*resolved.solver, ctx, g, init);
  // The resolution provenance, ahead of the inner solver's own detail —
  // this is how pipeline reports and ticket stats carry the chosen spec.
  std::ostringstream d;
  d << "auto -> " << resolved.spec.canonical() << " [bucket="
    << resolved.bucket << ", " << (resolved.fallback ? "fallback" : "model")
    << "]";
  if (!out.detail.empty()) d << "; " << out.detail;
  out.detail = d.str();
  return out;
}

}  // namespace bpm::policy
