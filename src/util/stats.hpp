#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace bpm {

/// Geometric mean of a set of positive values.
///
/// This is the aggregate the paper reports in Figure 1 and in the bottom
/// row of Table I.  Non-positive entries are clamped to `floor_value`
/// (runtimes are never zero, but guard against a 0 ms measurement on tiny
/// instances).
[[nodiscard]] double geometric_mean(std::span<const double> values,
                                    double floor_value = 1e-9);

/// Arithmetic mean.
[[nodiscard]] double arithmetic_mean(std::span<const double> values);

/// One point of a speedup profile (paper Figure 2):
/// `fraction` = P(speedup >= x) over the instance set.
struct ProfilePoint {
  double x = 0.0;
  double fraction = 0.0;
};

/// Speedup profile: for each requested abscissa `x`, the fraction of
/// instances on which `speedups[i] >= x`.
[[nodiscard]] std::vector<ProfilePoint> speedup_profile(
    std::span<const double> speedups, std::span<const double> xs);

/// Performance profile (paper Figure 3, Dolan–Moré).
///
/// `times[a][i]` is the runtime of algorithm `a` on instance `i`.
/// The result, per algorithm, gives for each abscissa `x` the fraction of
/// instances where `times[a][i] <= x * min_a'(times[a'][i])`.
struct PerformanceProfile {
  std::string name;
  std::vector<ProfilePoint> points;
};

[[nodiscard]] std::vector<PerformanceProfile> performance_profiles(
    std::span<const std::string> names,
    std::span<const std::vector<double>> times, std::span<const double> xs);

/// Small descriptive summary used by test helpers and bench reports.
struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double geomean = 0.0;
  std::size_t count = 0;
};

[[nodiscard]] Summary summarize(std::span<const double> values);

}  // namespace bpm
