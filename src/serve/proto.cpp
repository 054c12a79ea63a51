#include "serve/proto.hpp"

#include <charconv>
#include <cmath>
#include <sstream>

#include "serve/service.hpp"

namespace bpm::serve::proto {

namespace {

/// Implied edge-count sanity check: kinds whose size is (degree ×
/// dimension) must fit the limits before any generator allocates.
void check_implied_edges(Decoder& d, double edges, const Limits& limits) {
  if (!d.ok()) return;
  if (!(edges <= static_cast<double>(limits.max_edges)))
    d.fail(ErrorCode::kOutOfRange,
           "request implies ~" + std::to_string(edges) + " edges, cap is " +
               std::to_string(limits.max_edges));
}

GenSpec decode_gen_spec(Decoder& d, const std::string& kind,
                        const Limits& limits) {
  const graph::index_t dim_max = limits.max_dimension;
  if (kind == "uniform") {
    GenUniform g;
    g.rows = d.index("rows", 1, dim_max);
    g.cols = d.index("cols", 1, dim_max);
    g.edges = d.i64("edges", 0, limits.max_edges);
    g.seed = d.u64("seed");
    d.finish("gen <name> uniform <rows> <cols> <edges> <seed>");
    return g;
  }
  if (kind == "planted") {
    GenPlanted g;
    g.n = d.index("n", 1, dim_max);
    g.extra_degree = d.f64("extra_degree", 0.0, limits.max_degree);
    g.seed = d.u64("seed");
    d.finish("gen <name> planted <n> <extra_degree> <seed>");
    check_implied_edges(
        d, static_cast<double>(g.n) * (1.0 + g.extra_degree), limits);
    return g;
  }
  if (kind == "chung-lu") {
    GenChungLu g;
    g.rows = d.index("rows", 1, dim_max);
    g.cols = d.index("cols", 1, dim_max);
    g.avg_degree = d.f64("avg_degree", 0.0, limits.max_degree);
    // The generator needs gamma > 2 for a finite mean; enforce it here so
    // the client reads a bound, not a deep generator message.
    g.gamma = d.f64("gamma", 2.0 + 1e-9, 64.0);
    g.seed = d.u64("seed");
    d.finish("gen <name> chung-lu <rows> <cols> <avg_degree> <gamma> <seed>");
    check_implied_edges(d, static_cast<double>(g.rows) * g.avg_degree,
                        limits);
    return g;
  }
  if (kind == "instance") {
    GenInstance g;
    g.paper_name = d.str("paper-name");
    g.scale = d.f64("scale", 1e-9, 1e4);
    g.seed = d.u64("seed");
    d.finish("gen <name> instance <paper-name> <scale> <seed>");
    return g;
  }
  if (kind == "huge") {
    GenHuge g;
    g.rows = d.index("rows", 1, dim_max);
    g.cols = d.index("cols", 1, dim_max);
    g.avg_degree = d.f64("avg_degree", 0.0, limits.max_degree);
    g.hub_fraction = d.f64("hub_fraction", 0.0, 1.0);
    g.hub_every = d.index("hub_every", 0, dim_max);
    g.seed = d.u64("seed");
    d.finish(
        "gen <name> huge <rows> <cols> <avg_degree> <hub_fraction> "
        "<hub_every> <seed>");
    check_implied_edges(
        d,
        static_cast<double>(g.cols) * g.avg_degree +
            (g.hub_every > 0 ? (static_cast<double>(g.cols) /
                                static_cast<double>(g.hub_every)) *
                                   g.hub_fraction *
                                   static_cast<double>(g.rows)
                             : 0.0),
        limits);
    return g;
  }
  d.fail(ErrorCode::kBadArgument,
         "unknown generator kind '" + kind +
             "' (uniform | planted | chung-lu | instance | huge)");
  return GenUniform{};
}

}  // namespace

std::string_view error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadCommand: return "bad-command";
    case ErrorCode::kMissingArgument: return "missing-argument";
    case ErrorCode::kExtraArgument: return "extra-argument";
    case ErrorCode::kBadArgument: return "bad-argument";
    case ErrorCode::kOutOfRange: return "out-of-range";
    case ErrorCode::kLineTooLong: return "line-too-long";
    case ErrorCode::kUnauthorized: return "unauthorized";
    case ErrorCode::kQuotaExceeded: return "quota-exceeded";
    case ErrorCode::kUnknownInstance: return "unknown-instance";
    case ErrorCode::kUnknownTicket: return "unknown-ticket";
    case ErrorCode::kEvicted: return "evicted";
    case ErrorCode::kState: return "bad-state";
    case ErrorCode::kIo: return "io-error";
    case ErrorCode::kUnavailable: return "unavailable";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

// --- Checked numeric decode --------------------------------------------------

std::optional<std::int64_t> decode_i64(std::string_view token) {
  std::int64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end || token.empty()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> decode_u64(std::string_view token) {
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end || token.empty()) return std::nullopt;
  return value;
}

std::optional<double> decode_f64(std::string_view token) {
  double value = 0.0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc{} || ptr != end || token.empty()) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;  // reject nan/inf
  return value;
}

// --- Decoder -----------------------------------------------------------------

void Decoder::fail(ErrorCode code, std::string message) {
  if (!error_) error_ = ProtoError{code, std::move(message)};
}

std::string Decoder::str(const char* field) {
  if (!ok()) return {};
  if (pos_ >= tokens_.size()) {
    fail(ErrorCode::kMissingArgument,
         std::string("missing <") + field + ">");
    return {};
  }
  return tokens_[pos_++];
}

std::int64_t Decoder::i64(const char* field, std::int64_t min,
                          std::int64_t max) {
  const std::string token = str(field);
  if (!ok()) return 0;
  return i64_token(token, field, min, max);
}

std::int64_t Decoder::i64_token(std::string_view token, const char* field,
                                std::int64_t min, std::int64_t max) {
  if (!ok()) return 0;
  const auto v = decode_i64(token);
  if (!v) {
    fail(ErrorCode::kBadArgument, std::string("<") + field +
                                      "> expects an integer, got '" +
                                      std::string(token) + "'");
    return 0;
  }
  if (*v < min || *v > max) {
    fail(ErrorCode::kOutOfRange, std::string("<") + field + "> = " +
                                     std::string(token) + " outside [" +
                                     std::to_string(min) + ", " +
                                     std::to_string(max) + "]");
    return 0;
  }
  return *v;
}

std::uint64_t Decoder::u64(const char* field) {
  const std::string token = str(field);
  if (!ok()) return 0;
  const auto v = decode_u64(token);
  if (!v) {
    fail(ErrorCode::kBadArgument,
         std::string("<") + field + "> expects an unsigned integer, got '" +
             token + "'");
    return 0;
  }
  return *v;
}

double Decoder::f64(const char* field, double min, double max) {
  const std::string token = str(field);
  if (!ok()) return 0.0;
  return f64_token(token, field, min, max);
}

double Decoder::f64_token(std::string_view token, const char* field,
                          double min, double max) {
  if (!ok()) return 0.0;
  const auto v = decode_f64(token);
  if (!v) {
    fail(ErrorCode::kBadArgument, std::string("<") + field +
                                      "> expects a finite number, got '" +
                                      std::string(token) + "'");
    return 0.0;
  }
  if (*v < min || *v > max) {
    fail(ErrorCode::kOutOfRange, std::string("<") + field + "> = " +
                                     std::string(token) + " outside [" +
                                     std::to_string(min) + ", " +
                                     std::to_string(max) + "]");
    return 0.0;
  }
  return *v;
}

graph::index_t Decoder::index(const char* field, graph::index_t min,
                              graph::index_t max) {
  return static_cast<graph::index_t>(i64(field, min, max));
}

void Decoder::finish(const char* usage) {
  if (!ok()) {
    // Append the usage string so every decode failure teaches the schema.
    error_->message += " — usage: ";
    error_->message += usage;
    return;
  }
  if (remaining() > 0)
    fail(ErrorCode::kExtraArgument,
         "unexpected trailing argument '" + tokens_[pos_] + "' — usage: " +
             usage);
}

// --- parse_command -----------------------------------------------------------

Parsed parse_command(std::string_view line, const Limits& limits) {
  Parsed out;
  if (line.size() > limits.max_line_bytes) {
    out.error = ProtoError{
        ErrorCode::kLineTooLong,
        "line of " + std::to_string(line.size()) + " bytes exceeds the " +
            std::to_string(limits.max_line_bytes) + "-byte budget"};
    return out;
  }

  std::istringstream is{std::string(line)};
  std::vector<std::string> tok;
  for (std::string t; is >> t;) {
    tok.push_back(std::move(t));
    if (tok.size() > limits.max_tokens) {
      out.error = ProtoError{ErrorCode::kLineTooLong,
                             "more than " +
                                 std::to_string(limits.max_tokens) +
                                 " tokens on one line"};
      return out;
    }
  }
  if (tok.empty() || tok.front().starts_with('#')) return out;  // ignorable

  const std::string& cmd = tok.front();
  Decoder d(tok, 1);

  const auto done = [&](Command command, const char* usage) {
    d.finish(usage);
    if (d.ok())
      out.command = std::move(command);
    else
      out.error = d.take_error();
  };

  if (cmd == "auth") {
    AuthRequest r;
    r.token = d.str("token");
    done(std::move(r), "auth <token>");
  } else if (cmd == "load") {
    LoadRequest r;
    r.name = d.str("name");
    r.path = d.str("file.mtx");
    done(std::move(r), "load <name> <file.mtx>");
  } else if (cmd == "gen") {
    GenRequest r;
    r.name = d.str("name");
    const std::string kind = d.str("kind");
    if (d.ok()) r.spec = decode_gen_spec(d, kind, limits);
    if (d.ok())
      out.command = std::move(r);
    else
      out.error = d.take_error();
  } else if (cmd == "submit") {
    SubmitRequest r;
    r.instance = d.str("instance");
    r.spec = d.str("spec");
    while (d.ok() && d.remaining() > 0) {
      const std::string arg = d.str("argument");
      if (arg.starts_with("prio=")) {
        r.priority = static_cast<int>(d.i64_token(
            arg.substr(5), "prio", -1'000'000'000, 1'000'000'000));
      } else if (arg.starts_with("deadline=")) {
        r.deadline_ms = d.f64_token(arg.substr(9), "deadline", 0.0, 1e9);
      } else {
        d.fail(ErrorCode::kBadArgument,
               "unknown submit argument '" + arg + "'");
      }
    }
    done(std::move(r),
         "submit <instance> <spec> [prio=<n>] [deadline=<ms>]");
  } else if (cmd == "poll" || cmd == "wait") {
    const std::uint64_t ticket = d.u64("ticket");
    if (cmd == "poll")
      done(PollRequest{ticket}, "poll <ticket>");
    else
      done(WaitRequest{ticket}, "wait <ticket>");
  } else if (cmd == "drain") {
    done(DrainRequest{}, "drain");
  } else if (cmd == "stats") {
    done(StatsRequest{}, "stats");
  } else if (cmd == "metrics") {
    done(MetricsRequest{}, "metrics");
  } else if (cmd == "trace-start") {
    TraceStartRequest r;
    r.path = d.str("path");
    done(std::move(r), "trace-start <path>");
  } else if (cmd == "trace-dump") {
    done(TraceDumpRequest{}, "trace-dump");
  } else if (cmd == "shutdown") {
    done(ShutdownRequest{}, "shutdown");
  } else {
    out.error = ProtoError{
        ErrorCode::kBadCommand,
        "unknown command '" + cmd +
            "' (auth | load | gen | submit | poll | wait | drain | stats | "
            "metrics | trace-start | trace-dump | shutdown)"};
  }
  return out;
}

// --- Serialization -----------------------------------------------------------

std::string quoted(std::string_view value) {
  std::string out;
  out.reserve(value.size() + 2);
  out.push_back('"');
  for (const char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n' || c == '\r') {
      out.push_back(' ');
      continue;
    }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string error_line(const ProtoError& error) {
  return "error code=" + std::string(error_code_name(error.code)) +
         " msg=" + quoted(error.message);
}

std::string response_line(const Response& r) {
  std::ostringstream os;
  os << "result ticket=" << r.ticket << " instance=" << r.instance_name
     << " solver=" << r.solver << " ok=" << (r.ok ? 1 : 0)
     << " cached=" << (r.cached ? 1 : 0)
     << " cardinality=" << r.stats.cardinality << " queue_ms=" << r.queue_ms
     << " service_ms=" << r.service_ms << " total_ms=" << r.total_ms;
  // Appended only when policy resolution rewrote the request, so
  // explicit-traffic output stays byte-identical to the historical format.
  if (!r.resolved_from.empty()) os << " resolved_from=" << r.resolved_from;
  if (!r.error.empty()) os << " error=" << quoted(r.error);
  return os.str();
}

}  // namespace bpm::serve::proto
