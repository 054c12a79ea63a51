#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "policy/features.hpp"

namespace bpm::policy {

/// One calibrated cell: the mean measured cost of a solver spec inside a
/// feature bucket, normalised to microseconds per edge so one measurement
/// transfers across instance sizes within the bucket.
struct CostEntry {
  double us_per_edge = 0.0;
  std::int64_t samples = 0;
};

/// The offline calibration table: per (feature bucket, canonical solver
/// spec) mean cost, folded from `bench/auto_policy`'s measured grid and
/// embedded as the default model (`src/policy/default_model.inc`, written
/// by `auto_policy --emit-inc`).
///
/// The serialisation is deterministic — sorted maps, round-trippable
/// number formatting — so from_json(m.to_json()) == m byte for byte, which
/// is what keeps the committed table diffable across recalibrations.
class CostModel {
 public:
  using SpecTable = std::map<std::string, CostEntry>;

  /// Folds one measurement into the (bucket, spec) cell's running mean.
  void record(const std::string& bucket, const std::string& spec,
              double us_per_edge);

  /// The specs calibrated for `bucket`, falling back to the nearest
  /// calibrated bucket by `BucketId::distance` (deterministic tie-break on
  /// the bucket key).  Null only when the model is empty.
  [[nodiscard]] const SpecTable* lookup(const BucketId& bucket) const;

  /// Exact-bucket access (no fallback); null when absent.
  [[nodiscard]] const SpecTable* find(const std::string& bucket_key) const;

  [[nodiscard]] const std::map<std::string, SpecTable>& buckets() const {
    return buckets_;
  }
  [[nodiscard]] bool empty() const { return buckets_.empty(); }
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }

  /// Deterministic JSON document (sorted, precision-17 numbers).
  [[nodiscard]] std::string to_json() const;

  /// Parses a `to_json()` document.  Throws `std::invalid_argument` on
  /// malformed input (the parser covers exactly the subset `to_json`
  /// emits, plus whitespace freedom).
  [[nodiscard]] static CostModel from_json(std::string_view json);

  /// The committed calibration table embedded in the library
  /// (`default_model.inc`, regenerated by `auto_policy --emit-inc`).
  [[nodiscard]] static const CostModel& embedded_default();

 private:
  std::map<std::string, SpecTable> buckets_;
};

}  // namespace bpm::policy
