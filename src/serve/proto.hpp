#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "graph/bipartite_graph.hpp"

namespace bpm::serve {
struct Response;  // serve/service.hpp
}

namespace bpm::serve::proto {

/// The serving protocol's request schema: every line a client can send is
/// decoded field-by-field into one of the typed request structs below, or
/// rejected with a `ProtoError` naming what was wrong.  Nothing in this
/// layer ever throws on malformed input — the decode helpers are
/// `std::from_chars` based, range-checked, and full-token-matched, so a
/// hostile `submit foo g-pr prio=abc` (or an out-of-range ticket id, or a
/// 2 GB `gen` dimension) becomes an `error ...` response line instead of
/// an uncaught `std::invalid_argument` out of `std::stoi`.

/// Why a line failed to decode (or a decoded request was refused).
/// Serialized into the protocol as kebab-case codes by
/// `error_code_name`.
enum class ErrorCode {
  kBadCommand,       ///< unknown command word
  kMissingArgument,  ///< too few tokens for the command's schema
  kExtraArgument,    ///< trailing tokens the schema does not define
  kBadArgument,      ///< a field failed to decode (non-numeric, bad kind)
  kOutOfRange,       ///< decoded fine but outside the field's bounds
  kLineTooLong,      ///< exceeded Limits::max_line_bytes
  kUnauthorized,     ///< auth token required and not presented / wrong
  kQuotaExceeded,    ///< per-client request quota exhausted
  kUnknownInstance,  ///< submit names an instance the store never saw
  kUnknownTicket,    ///< poll/wait names a ticket never issued
  kEvicted,          ///< submit names an instance the store evicted
  kState,            ///< command invalid in this state (trace-dump first)
  kIo,               ///< file system / OS failure serving the command
  kUnavailable,      ///< server refusing work (full, shutting down)
  kInternal,         ///< anything unexpected; the message says what
};

[[nodiscard]] std::string_view error_code_name(ErrorCode code);

/// A refused line: machine-readable code plus a human-usable message that
/// names the offending field and value.
struct ProtoError {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
};

/// Decode bounds the schema enforces at the protocol boundary, before any
/// generator or allocator sees the values.  The caps are generous enough
/// for the massive suite but reject absurd requests (a 10^18 degree, a
/// negative dimension) with a usable message instead of an overflow, a
/// bad_alloc, or undefined float→int casts deep in the generators.
struct Limits {
  std::size_t max_line_bytes = 64 * 1024;
  std::size_t max_tokens = 64;
  /// Largest rows/cols a `gen` request may ask for.
  graph::index_t max_dimension = graph::index_t{1} << 28;
  /// Largest edge count a single `gen` request may imply.
  graph::offset_t max_edges = graph::offset_t{1} << 33;
  /// Largest per-vertex average/extra degree a `gen` request may ask for.
  double max_degree = 1e6;
};

// --- Typed requests ---------------------------------------------------------

struct AuthRequest {
  std::string token;
};

struct LoadRequest {
  std::string name;
  std::string path;
};

// One struct per generator kind, fields already range-checked.
struct GenUniform {
  graph::index_t rows = 0, cols = 0;
  graph::offset_t edges = 0;
  std::uint64_t seed = 0;
};
struct GenPlanted {
  graph::index_t n = 0;
  double extra_degree = 0.0;
  std::uint64_t seed = 0;
};
struct GenChungLu {
  graph::index_t rows = 0, cols = 0;
  double avg_degree = 0.0, gamma = 0.0;
  std::uint64_t seed = 0;
};
struct GenInstance {
  std::string paper_name;
  double scale = 0.0;
  std::uint64_t seed = 0;
};
struct GenHuge {
  graph::index_t rows = 0, cols = 0;
  double avg_degree = 0.0, hub_fraction = 0.0;
  graph::index_t hub_every = 0;
  std::uint64_t seed = 0;
};
using GenSpec =
    std::variant<GenUniform, GenPlanted, GenChungLu, GenInstance, GenHuge>;

struct GenRequest {
  std::string name;
  GenSpec spec;
};

struct SubmitRequest {
  std::string instance;
  std::string spec;  ///< SolverSpec grammar; validated by the registry
  int priority = 0;
  double deadline_ms = 0.0;
};

struct PollRequest {
  std::uint64_t ticket = 0;
};
struct WaitRequest {
  std::uint64_t ticket = 0;
};
struct DrainRequest {};
struct StatsRequest {};
struct MetricsRequest {};
struct TraceStartRequest {
  std::string path;
};
struct TraceDumpRequest {};
struct ShutdownRequest {};

using Command =
    std::variant<AuthRequest, LoadRequest, GenRequest, SubmitRequest,
                 PollRequest, WaitRequest, DrainRequest, StatsRequest,
                 MetricsRequest, TraceStartRequest, TraceDumpRequest,
                 ShutdownRequest>;

/// What one protocol line parsed into: exactly one of `command` / `error`
/// is set, or neither for a blank / comment line (`ignorable`).
struct Parsed {
  std::optional<Command> command;
  std::optional<ProtoError> error;
  [[nodiscard]] bool ignorable() const { return !command && !error; }
};

/// Decodes one protocol line against the schema.  Never throws; a line of
/// any content — truncated, non-numeric, overflowing, oversized — comes
/// back as a `ProtoError` with a message naming the field.
[[nodiscard]] Parsed parse_command(std::string_view line,
                                   const Limits& limits = {});

// --- Checked numeric decode --------------------------------------------------
// Full-token `std::from_chars` wrappers: empty tokens, trailing junk
// ("12x"), overflow, and non-finite doubles all yield nullopt instead of
// throwing.  These are the only way numbers enter the serving protocol.

[[nodiscard]] std::optional<std::int64_t> decode_i64(std::string_view token);
[[nodiscard]] std::optional<std::uint64_t> decode_u64(std::string_view token);
[[nodiscard]] std::optional<double> decode_f64(std::string_view token);

/// Field-by-field decoder over a tokenized line.  Accessors consume the
/// next token, validate it against the field's type and bounds, and latch
/// the FIRST failure — subsequent accessors return defaults so a command
/// parser can decode its whole schema unconditionally and check `ok()`
/// once at the end (the reflection-style Parser idiom, minus the
/// reflection).
class Decoder {
 public:
  Decoder(const std::vector<std::string>& tokens, std::size_t begin)
      : tokens_(tokens), pos_(begin) {}

  [[nodiscard]] bool ok() const { return !error_.has_value(); }
  [[nodiscard]] ProtoError take_error() {
    return error_ ? std::move(*error_)
                  : ProtoError{ErrorCode::kInternal, "no error"};
  }
  [[nodiscard]] std::size_t remaining() const {
    return pos_ < tokens_.size() ? tokens_.size() - pos_ : 0;
  }

  [[nodiscard]] std::string str(const char* field);
  [[nodiscard]] std::int64_t i64(const char* field, std::int64_t min,
                                 std::int64_t max);
  [[nodiscard]] std::uint64_t u64(const char* field);
  [[nodiscard]] double f64(const char* field, double min, double max);
  [[nodiscard]] graph::index_t index(const char* field, graph::index_t min,
                                     graph::index_t max);

  /// Decodes an already-extracted token (a `key=value` payload) as the
  /// given field instead of consuming from the token stream.
  [[nodiscard]] std::int64_t i64_token(std::string_view token,
                                       const char* field, std::int64_t min,
                                       std::int64_t max);
  [[nodiscard]] double f64_token(std::string_view token, const char* field,
                                 double min, double max);

  /// Errors with `kExtraArgument` unless every token was consumed.
  void finish(const char* usage);
  /// Records an error directly (kind dispatch, cross-field checks).
  void fail(ErrorCode code, std::string message);

 private:
  const std::vector<std::string>& tokens_;
  std::size_t pos_ = 0;
  std::optional<ProtoError> error_;
};

// --- Serialization -----------------------------------------------------------

/// `value` with `\` `"` and newlines escaped, wrapped in double quotes.
[[nodiscard]] std::string quoted(std::string_view value);

/// `error code=<kebab-name> msg="<message>"` — the one shape every
/// refused line answers with, in both stdin and socket transports.
[[nodiscard]] std::string error_line(const ProtoError& error);

/// The `result ticket=... instance=... solver=... ok=...` response line
/// (exactly the historical bpm_serve format, so scripts keep parsing).
[[nodiscard]] std::string response_line(const Response& response);

}  // namespace bpm::serve::proto
