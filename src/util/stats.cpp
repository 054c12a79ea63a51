#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace bpm {

double geometric_mean(std::span<const double> values, double floor_value) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) log_sum += std::log(std::max(v, floor_value));
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double arithmetic_mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::vector<ProfilePoint> speedup_profile(std::span<const double> speedups,
                                          std::span<const double> xs) {
  std::vector<ProfilePoint> out;
  out.reserve(xs.size());
  const auto n = static_cast<double>(speedups.size());
  for (double x : xs) {
    std::size_t hits = 0;
    for (double s : speedups)
      if (s >= x) ++hits;
    out.push_back({x, n > 0 ? static_cast<double>(hits) / n : 0.0});
  }
  return out;
}

std::vector<PerformanceProfile> performance_profiles(
    std::span<const std::string> names,
    std::span<const std::vector<double>> times, std::span<const double> xs) {
  if (names.size() != times.size())
    throw std::invalid_argument(
        "performance_profiles: names/times size mismatch");
  const std::size_t num_algos = times.size();
  if (num_algos == 0) return {};
  const std::size_t num_instances = times[0].size();
  for (const auto& row : times)
    if (row.size() != num_instances)
      throw std::invalid_argument(
          "performance_profiles: ragged time matrix");

  // Best runtime per instance across all algorithms.
  std::vector<double> best(num_instances,
                           std::numeric_limits<double>::infinity());
  for (const auto& row : times)
    for (std::size_t i = 0; i < num_instances; ++i)
      best[i] = std::min(best[i], row[i]);

  std::vector<PerformanceProfile> out;
  out.reserve(num_algos);
  for (std::size_t a = 0; a < num_algos; ++a) {
    PerformanceProfile p;
    p.name = names[a];
    p.points.reserve(xs.size());
    for (double x : xs) {
      std::size_t hits = 0;
      for (std::size_t i = 0; i < num_instances; ++i)
        if (times[a][i] <= x * best[i]) ++hits;
      p.points.push_back(
          {x, num_instances > 0
                  ? static_cast<double>(hits) / static_cast<double>(num_instances)
                  : 0.0});
    }
    out.push_back(std::move(p));
  }
  return out;
}

Summary summarize(std::span<const double> values) {
  Summary s;
  s.count = values.size();
  if (values.empty()) return s;
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  for (double v : values) {
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
  }
  s.mean = arithmetic_mean(values);
  s.geomean = geometric_mean(values);
  return s;
}

}  // namespace bpm
