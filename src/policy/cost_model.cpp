#include "policy/cost_model.hpp"

#include <cctype>
#include <charconv>
#include <sstream>
#include <stdexcept>

namespace bpm::policy {

namespace {

/// Round-trippable doubles, same convention as harness_common's JSON.
std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Minimal scanner over exactly the JSON subset `to_json` emits: objects,
/// string keys, and numbers.  Keys never contain escapes (bucket keys and
/// canonical specs are `[-a-z0-9.=:,]`), so no unescaping is needed.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  [[nodiscard]] bool peek(char c) {
    skip_ws();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  [[nodiscard]] bool consume(char c) {
    if (!peek(c)) return false;
    ++pos_;
    return true;
  }

  [[nodiscard]] std::string string() {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') fail("escapes are not part of the model schema");
      ++pos_;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    return std::string(text_.substr(start, pos_++ - start));
  }

  [[nodiscard]] double number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    double value = 0.0;
    const auto [end, ec] = std::from_chars(text_.data() + start,
                                           text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_ || pos_ == start)
      fail("malformed number");
    return value;
  }

  void finish() {
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after the document");
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  [[noreturn]] void fail(const std::string& why) const {
    throw std::invalid_argument("cost model JSON: " + why + " at byte " +
                                std::to_string(pos_));
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

void CostModel::record(const std::string& bucket, const std::string& spec,
                       double us_per_edge) {
  CostEntry& e = buckets_[bucket][spec];
  e.us_per_edge =
      (e.us_per_edge * static_cast<double>(e.samples) + us_per_edge) /
      static_cast<double>(e.samples + 1);
  ++e.samples;
}

const CostModel::SpecTable* CostModel::find(
    const std::string& bucket_key) const {
  const auto it = buckets_.find(bucket_key);
  return it == buckets_.end() ? nullptr : &it->second;
}

const CostModel::SpecTable* CostModel::lookup(const BucketId& bucket) const {
  if (const SpecTable* exact = find(bucket.key())) return exact;
  const SpecTable* best = nullptr;
  int best_distance = 0;
  for (const auto& [key, table] : buckets_) {
    BucketId candidate;
    if (!BucketId::parse(key, candidate)) continue;
    const int d = bucket.distance(candidate);
    // Strict '<' keeps the first (lexicographically smallest, the map is
    // sorted) bucket on ties — deterministic fallback.
    if (best == nullptr || d < best_distance) {
      best = &table;
      best_distance = d;
    }
  }
  return best;
}

std::string CostModel::to_json() const {
  std::ostringstream os;
  os << "{\n  \"policy_cost_model\": 1,\n  \"buckets\": {";
  bool first_bucket = true;
  for (const auto& [bucket, specs] : buckets_) {
    os << (first_bucket ? "\n" : ",\n") << "    \"" << bucket << "\": {";
    first_bucket = false;
    bool first_spec = true;
    for (const auto& [spec, entry] : specs) {
      os << (first_spec ? "\n" : ",\n") << "      \"" << spec
         << "\": {\"us_per_edge\": " << json_number(entry.us_per_edge)
         << ", \"samples\": " << entry.samples << "}";
      first_spec = false;
    }
    os << "\n    }";
  }
  os << (first_bucket ? "}" : "\n  }") << "\n}\n";
  return os.str();
}

CostModel CostModel::from_json(std::string_view json) {
  CostModel model;
  Scanner s(json);
  s.expect('{');
  bool first_field = true;
  while (!s.peek('}')) {
    if (!first_field) s.expect(',');
    first_field = false;
    const std::string field = s.string();
    s.expect(':');
    if (field == "policy_cost_model") {
      if (s.number() != 1.0)
        throw std::invalid_argument("cost model JSON: unsupported version");
    } else if (field == "buckets") {
      s.expect('{');
      bool first_bucket = true;
      while (!s.peek('}')) {
        if (!first_bucket) s.expect(',');
        first_bucket = false;
        const std::string bucket = s.string();
        s.expect(':');
        s.expect('{');
        bool first_spec = true;
        while (!s.peek('}')) {
          if (!first_spec) s.expect(',');
          first_spec = false;
          const std::string spec = s.string();
          s.expect(':');
          s.expect('{');
          CostEntry entry;
          bool first_key = true;
          while (!s.peek('}')) {
            if (!first_key) s.expect(',');
            first_key = false;
            const std::string key = s.string();
            s.expect(':');
            const double value = s.number();
            if (key == "us_per_edge")
              entry.us_per_edge = value;
            else if (key == "samples")
              entry.samples = static_cast<std::int64_t>(value);
            else
              throw std::invalid_argument("cost model JSON: unknown field '" +
                                          key + "'");
          }
          s.expect('}');
          model.buckets_[bucket][spec] = entry;
        }
        s.expect('}');
      }
      s.expect('}');
    } else {
      throw std::invalid_argument("cost model JSON: unknown field '" + field +
                                  "'");
    }
  }
  s.expect('}');
  s.finish();
  return model;
}

const CostModel& CostModel::embedded_default() {
  static const CostModel model = from_json(
#include "policy/default_model.inc"
  );
  return model;
}

}  // namespace bpm::policy
