// serve::proto + serve::Session (src/serve/): the crash-proof request
// schema.  The contract under attack: for ANY input line, parse_command
// returns a typed command or a typed ProtoError (never throws), and
// Session::execute answers `error ...` lines (never throws, never kills
// the service) — then keeps serving valid requests.  Plus auth gating,
// per-session quotas, and the checked numeric decode helpers themselves.

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/matrix_market.hpp"
#include "matching/greedy.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/proto.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "util/rng.hpp"

namespace bpm::serve {
namespace {

// --- checked numeric decode --------------------------------------------------

TEST(ProtoDecode, I64) {
  EXPECT_EQ(proto::decode_i64("0"), 0);
  EXPECT_EQ(proto::decode_i64("-17"), -17);
  EXPECT_EQ(proto::decode_i64("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_FALSE(proto::decode_i64(""));
  EXPECT_FALSE(proto::decode_i64("12x"));           // trailing junk
  EXPECT_FALSE(proto::decode_i64("x12"));
  EXPECT_FALSE(proto::decode_i64("1.5"));           // not an integer
  EXPECT_FALSE(proto::decode_i64(" 1"));            // no implicit trimming
  EXPECT_FALSE(proto::decode_i64("999999999999999999999999999999"));
}

TEST(ProtoDecode, U64) {
  EXPECT_EQ(proto::decode_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(proto::decode_u64("-1"));
  EXPECT_FALSE(proto::decode_u64(""));
  EXPECT_FALSE(proto::decode_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(proto::decode_u64("1e3"));
}

TEST(ProtoDecode, F64) {
  EXPECT_DOUBLE_EQ(*proto::decode_f64("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*proto::decode_f64("1e3"), 1000.0);
  EXPECT_FALSE(proto::decode_f64(""));
  EXPECT_FALSE(proto::decode_f64("abc"));
  EXPECT_FALSE(proto::decode_f64("1.5x"));
  EXPECT_FALSE(proto::decode_f64("nan"));  // non-finite never enters
  EXPECT_FALSE(proto::decode_f64("inf"));
  EXPECT_FALSE(proto::decode_f64("-inf"));
  EXPECT_FALSE(proto::decode_f64("1e999"));  // overflows to inf
}

// --- parse_command -----------------------------------------------------------

TEST(ProtoParse, HappyPaths) {
  using std::holds_alternative;
  auto cmd = [](std::string_view line) {
    proto::Parsed p = proto::parse_command(line);
    EXPECT_TRUE(p.command.has_value()) << line;
    return std::move(*p.command);
  };
  EXPECT_TRUE(holds_alternative<proto::AuthRequest>(cmd("auth s3cret")));
  EXPECT_TRUE(holds_alternative<proto::LoadRequest>(cmd("load a b.mtx")));
  EXPECT_TRUE(holds_alternative<proto::GenRequest>(
      cmd("gen a uniform 10 12 50 7")));
  EXPECT_TRUE(holds_alternative<proto::GenRequest>(
      cmd("gen a planted 100 1.5 7")));
  EXPECT_TRUE(holds_alternative<proto::GenRequest>(
      cmd("gen a chung-lu 50 60 3.0 2.5 1")));
  EXPECT_TRUE(holds_alternative<proto::GenRequest>(
      cmd("gen a instance rand-easy 0.5 3")));
  EXPECT_TRUE(holds_alternative<proto::GenRequest>(
      cmd("gen a huge 100 100 4.0 0.1 10 2")));
  EXPECT_TRUE(holds_alternative<proto::SubmitRequest>(cmd("submit a hk")));
  EXPECT_TRUE(holds_alternative<proto::SubmitRequest>(
      cmd("submit a g-pr-shr:k=1.5 prio=3 deadline=500")));
  EXPECT_TRUE(holds_alternative<proto::PollRequest>(cmd("poll 7")));
  EXPECT_TRUE(holds_alternative<proto::WaitRequest>(cmd("wait 7")));
  EXPECT_TRUE(holds_alternative<proto::DrainRequest>(cmd("drain")));
  EXPECT_TRUE(holds_alternative<proto::StatsRequest>(cmd("stats")));
  EXPECT_TRUE(holds_alternative<proto::MetricsRequest>(cmd("metrics")));
  EXPECT_TRUE(
      holds_alternative<proto::TraceStartRequest>(cmd("trace-start /tmp/t")));
  EXPECT_TRUE(holds_alternative<proto::TraceDumpRequest>(cmd("trace-dump")));
  EXPECT_TRUE(holds_alternative<proto::ShutdownRequest>(cmd("shutdown")));
}

TEST(ProtoParse, SubmitFields) {
  proto::Parsed p =
      proto::parse_command("submit demo g-pr-shr:k=1.5 prio=5 deadline=250");
  ASSERT_TRUE(p.command.has_value());
  const auto& r = std::get<proto::SubmitRequest>(*p.command);
  EXPECT_EQ(r.instance, "demo");
  EXPECT_EQ(r.spec, "g-pr-shr:k=1.5");
  EXPECT_EQ(r.priority, 5);
  EXPECT_DOUBLE_EQ(r.deadline_ms, 250.0);
}

TEST(ProtoParse, IgnorableLines) {
  EXPECT_TRUE(proto::parse_command("").ignorable());
  EXPECT_TRUE(proto::parse_command("   ").ignorable());
  EXPECT_TRUE(proto::parse_command("# a comment").ignorable());
  EXPECT_TRUE(proto::parse_command("  # indented comment").ignorable());
}

TEST(ProtoParse, MalformedCorpus) {
  // Every entry must produce a typed error — and error_line must render
  // it as a protocol `error ...` response.
  const char* corpus[] = {
      "submit foo g-pr prio=abc",
      "submit foo g-pr deadline=nan",
      "submit foo g-pr bogus=1",
      "submit foo",
      "submit",
      "gen",
      "gen x",
      "gen x uniform",
      "gen x uniform 10",
      "gen x uniform ten 10 50 1",
      "gen x uniform -5 10 50 1",
      "gen x uniform 0 10 50 1",
      "gen x uniform 10 10 -3 1",
      "gen x uniform 99999999999999999999 10 50 1",
      "gen x planted 10 1e300 1",
      "gen x planted 10 -1 1",
      "gen x chung-lu 10 10 4.0 1.5 1",      // gamma must exceed 2
      "gen x chung-lu 10 10 1e300 2.5 1",
      "gen x huge 10 10 4.0 1.5 10 1",       // hub_fraction > 1
      "gen x huge 10 10 4.0 -0.5 10 1",
      "gen x nosuchkind 1 2 3",
      "gen x uniform 10 12 50 7 extra-token",
      "load x",
      "load x a.mtx extra",
      "poll",
      "poll abc",
      "poll -1",
      "poll 184467440737095516150",           // overflows uint64
      "wait xyz",
      "drain now",
      "stats verbose",
      "trace-start",
      "save-cache",
      "load-cache a b",
      "auth",
      "policy",  // deleted command: now an ordinary unknown command
      "totally-unknown-command 1 2 3",
  };
  for (const char* line : corpus) {
    proto::Parsed p = proto::parse_command(line);
    EXPECT_FALSE(p.command.has_value()) << line;
    ASSERT_TRUE(p.error.has_value()) << line;
    EXPECT_FALSE(p.error->message.empty()) << line;
    const std::string rendered = proto::error_line(*p.error);
    EXPECT_TRUE(rendered.starts_with("error code=")) << rendered;
    EXPECT_NE(rendered.find("msg="), std::string::npos) << rendered;
  }
}

TEST(ProtoError, EveryCodeRendersItsKebabName) {
  using proto::ErrorCode;
  const std::pair<ErrorCode, std::string_view> codes[] = {
      {ErrorCode::kBadCommand, "bad-command"},
      {ErrorCode::kMissingArgument, "missing-argument"},
      {ErrorCode::kExtraArgument, "extra-argument"},
      {ErrorCode::kBadArgument, "bad-argument"},
      {ErrorCode::kOutOfRange, "out-of-range"},
      {ErrorCode::kLineTooLong, "line-too-long"},
      {ErrorCode::kUnauthorized, "unauthorized"},
      {ErrorCode::kQuotaExceeded, "quota-exceeded"},
      {ErrorCode::kUnknownInstance, "unknown-instance"},
      {ErrorCode::kUnknownTicket, "unknown-ticket"},
      {ErrorCode::kEvicted, "evicted"},
      {ErrorCode::kState, "bad-state"},
      {ErrorCode::kIo, "io-error"},
      {ErrorCode::kUnavailable, "unavailable"},
      {ErrorCode::kInternal, "internal"},
  };
  for (const auto& [code, name] : codes) {
    EXPECT_EQ(proto::error_code_name(code), name);
    EXPECT_TRUE(proto::error_line({code, "m"}).starts_with(
        "error code=" + std::string(name) + " msg="));
  }
}

TEST(ProtoParse, GenBoundsComeFromLimits) {
  proto::Limits limits;
  limits.max_dimension = 100;
  proto::Parsed p = proto::parse_command("gen x uniform 101 10 50 1", limits);
  ASSERT_TRUE(p.error.has_value());
  EXPECT_EQ(p.error->code, proto::ErrorCode::kOutOfRange);
  // The same request passes under the default (generous) limits.
  EXPECT_TRUE(proto::parse_command("gen x uniform 101 10 50 1")
                  .command.has_value());
  // Implied edge volume (degree x dimension) is capped too.
  limits = {};
  limits.max_edges = 1000;
  p = proto::parse_command("gen x planted 1000 100 1", limits);
  ASSERT_TRUE(p.error.has_value());
  EXPECT_EQ(p.error->code, proto::ErrorCode::kOutOfRange);
}

TEST(ProtoParse, LineTooLong) {
  proto::Limits limits;
  limits.max_line_bytes = 64;
  const std::string line = "submit " + std::string(200, 'a') + " hk";
  proto::Parsed p = proto::parse_command(line, limits);
  ASSERT_TRUE(p.error.has_value());
  EXPECT_EQ(p.error->code, proto::ErrorCode::kLineTooLong);
}

TEST(ProtoParse, TokenFlood) {
  proto::Limits limits;
  std::string line = "submit a hk";
  for (std::size_t t = 0; t < limits.max_tokens + 8; ++t) line += " prio=1";
  proto::Parsed p = proto::parse_command(line, limits);
  ASSERT_TRUE(p.error.has_value());
}

// --- Session: execute never throws, service survives -------------------------

ServiceOptions tiny_service_options() {
  ServiceOptions opt;
  opt.workers = 2;
  opt.queue_depth = 64;
  return opt;
}

std::vector<std::string> run(Session& session, std::string_view line) {
  return session.execute(line).lines;
}

/// The `key=<integer>` field of a protocol line (-1 when absent).
long field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find(" " + key + "=");
  return at == std::string::npos ? -1
                                 : std::stol(line.substr(at + key.size() + 2));
}

TEST(ServeSession, ValidFlow) {
  ServiceOptions options = tiny_service_options();
  options.cache = std::make_shared<ResultCache>();
  MatchingService service(options);
  SessionContext context(service);
  Session session(context);
  auto lines = run(session, "gen a planted 50 1.0 3");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].starts_with("instance a handle="));
  // One solved device request, then a repeat of it served from the cache.
  for (const bool cached : {false, true}) {
    lines = run(session, "submit a g-pr-shr");
    ASSERT_EQ(lines.size(), 1u);
    ASSERT_TRUE(lines[0].starts_with("ticket "));
    lines = run(session, "wait " + lines[0].substr(7));
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_TRUE(lines[0].starts_with("result ticket="));
    EXPECT_NE(lines[0].find(" ok=1 "), std::string::npos);
    EXPECT_NE(lines[0].find(" cardinality=50 "), std::string::npos);
    EXPECT_EQ(field(lines[0], "cached"), cached ? 1 : 0) << lines[0];
  }

  // The engine line a stats client parses: exactly one, for engine 0.
  // The cache hit opened no stream, so the one solve is the one dispatch.
  std::vector<std::string> engine_lines;
  for (const std::string& l : run(session, "stats"))
    if (l.starts_with("engine ")) engine_lines.push_back(l);
  ASSERT_EQ(engine_lines.size(), 1u);
  const std::string& engine = engine_lines[0];
  EXPECT_TRUE(engine.starts_with("engine 0 ")) << engine;
  EXPECT_NE(engine.find(" native_ms="), std::string::npos) << engine;
  EXPECT_EQ(field(engine, "dispatches"), 1) << engine;
  // One field per count: `dispatches` is the streams opened.
  EXPECT_EQ(engine.find(" streams_opened="), std::string::npos) << engine;
  EXPECT_EQ(field(engine, "streams_retired"), 1) << engine;
  EXPECT_GT(field(engine, "launches"), 0) << engine;

  // A traced `load` shows where admission time goes: one span and one
  // sample in the service's registry for the read, one of each for the
  // admission.  So far the service saw no load and one admission (`gen`).
  const auto samples = [&](const std::string& name) {
    return service.metrics().histogram(name).snapshot().count;
  };
  const std::uint64_t reads = samples("serve.load_read_ms");
  const std::uint64_t admits = samples("serve.admit_ms");
  EXPECT_EQ(reads, 0u);
  EXPECT_EQ(admits, 1u);
  const std::filesystem::path mtx =
      std::filesystem::temp_directory_path() / "bpm_serve_proto_valid_flow.mtx";
  const graph::BipartiteGraph planted = graph::gen::planted_perfect(30, 1.0, 5);
  graph::write_matrix_market_file(mtx.string(), planted);
  lines = run(session, "trace-start " + mtx.string() + ".trace.json");
  ASSERT_EQ(lines.size(), 1u);
  lines = run(session, "load b " + mtx.string());
  std::filesystem::remove(mtx);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].starts_with("instance b handle=")) << lines[0];
  // Admission runs no reference solve, so the reply carries no maximum:
  // it comes from a verified exact result instead.
  EXPECT_EQ(lines[0].find(" max="), std::string::npos) << lines[0];
  lines = run(session, "submit b hk");
  ASSERT_EQ(lines.size(), 1u);
  ASSERT_TRUE(lines[0].starts_with("ticket ")) << lines[0];
  lines = run(session, "wait " + lines[0].substr(7));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(field(lines[0], "cardinality"), 30) << lines[0];
  EXPECT_EQ(field(lines[0], "ok"), 1) << lines[0];
  // The admission span says how many columns the init left unmatched.
  const std::string unmatched = obs::arg_json(
      "unmatched", std::int64_t{planted.num_cols() -
                                matching::karp_sipser(planted).cardinality()});
  std::set<std::string> spans;
  for (const obs::TraceEvent& ev : context.tracer.events()) {
    spans.insert(ev.name);
    if (ev.name == "load.admit")
      EXPECT_NE(ev.args.find(unmatched), std::string::npos) << ev.args;
  }
  EXPECT_TRUE(spans.contains("load.read"));
  EXPECT_TRUE(spans.contains("load.admit"));
  EXPECT_TRUE(spans.contains("verify"));  // the certificate on the hk solve
  EXPECT_EQ(samples("serve.load_read_ms"), reads + 1);
  EXPECT_EQ(samples("serve.admit_ms"), admits + 1);
  EXPECT_EQ(session.errors(), 0u);
}

TEST(ServeSession, NoCommandWritesACacheSnapshotToAClientPath) {
  // The cache is snapshotted only by the server's own `--cache-save`; a
  // client line naming a path is an unknown command and writes nothing.
  ServiceOptions options = tiny_service_options();
  options.cache = std::make_shared<ResultCache>();
  MatchingService service(options);
  SessionContext context(service);
  Session session(context);
  const std::string path =
      ::testing::TempDir() + "bpm_client_named_snapshot.cache";
  std::filesystem::remove(path);
  for (const std::string line : {"save-cache " + path, "load-cache " + path}) {
    const auto lines = run(session, line);
    ASSERT_EQ(lines.size(), 1u) << line;
    EXPECT_TRUE(lines[0].starts_with("error code=bad-command")) << lines[0];
  }
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ServeSession, OversizedPaperInstanceIsRejectedBeforeItIsBuilt) {
  // `gen ... instance` gets the row, column and edge caps of the other
  // generator kinds.  The first three lines scale delaunay_n24 past the
  // per-side cap (and past a 32-bit vertex index); the last one scales
  // kron_g500-logn20 inside the per-side cap but past the edge cap.
  MatchingService service(tiny_service_options());
  SessionContext context(service);
  Session session(context);
  for (const char* line : {"gen x instance delaunay_n24 200 1",
                           "gen x instance delaunay_n24 1000 1",
                           "gen x instance delaunay_n24 10000 1",
                           "gen x instance kron_g500-logn20 200 1"}) {
    const auto lines = run(session, line);
    ASSERT_EQ(lines.size(), 1u) << line;
    EXPECT_TRUE(lines[0].starts_with("error code=out-of-range")) << lines[0];
  }
  EXPECT_FALSE(service.instances().find("x").has_value());
  EXPECT_EQ(service.instances().stats().instances, 0u);
}

TEST(ServeSession, MalformedLinesAnswerErrorsAndServiceSurvives) {
  MatchingService service(tiny_service_options());
  SessionContext context(service);
  Session session(context);
  const char* corpus[] = {
      "submit foo g-pr prio=abc",
      "gen broken uniform -5 10 100 1",
      "gen broken planted 10 1e300 1",
      "gen broken chung-lu 10 10 4.0 1.0 1",
      "poll 99999999999999999999",
      "wait not-a-ticket",
      "wait 424242",                       // never-issued ticket
      "submit nosuchinstance hk",
      "load broken /nonexistent/file.mtx",
      "trace-dump",                        // before trace-start
      "save-cache /nonexistent/dir/c",
      "unknown-command",
  };
  for (const char* line : corpus) {
    const auto lines = run(session, line);
    ASSERT_EQ(lines.size(), 1u) << line;
    EXPECT_TRUE(lines[0].starts_with("error code=")) << lines[0];
  }
  EXPECT_EQ(session.errors(), std::size(corpus));
  // The same session still serves valid requests.
  auto lines = run(session, "gen ok planted 40 0.5 9");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].starts_with("instance ok"));
  lines = run(session, "submit ok hk");
  ASSERT_TRUE(lines[0].starts_with("ticket "));
  lines = run(session, "wait " + lines[0].substr(7));
  EXPECT_NE(lines[0].find("cardinality=40"), std::string::npos);
}

TEST(ServeSession, FuzzedLinesNeverThrow) {
  MatchingService service(tiny_service_options());
  SessionContext context(service);
  Session session(context);
  const std::string seeds[] = {
      "gen a uniform 40 42 200 5", "gen b planted 30 1.0 2",
      "submit a hk prio=2",        "submit a g-pr-shr deadline=100",
      "poll 1",                    "wait 1",
      "stats",                     "metrics",
      "drain",                     "load x file.mtx",
  };
  Rng rng(2013);
  for (int trial = 0; trial < 300; ++trial) {
    std::string line = seeds[rng.below(std::size(seeds))];
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
      const auto pos = static_cast<std::size_t>(rng.below(line.size()));
      line[pos] = static_cast<char>(' ' + static_cast<char>(rng.below(95)));
    }
    // The contract: execute returns lines, never throws.  (A mutated line
    // can still be valid — a changed seed digit — so no assertion on the
    // response kind, only on survival.)
    const Session::Outcome out = session.execute(line);
    for (const std::string& l : out.lines) EXPECT_FALSE(l.empty());
  }
  // Prove the service is still alive and correct after the storm.
  auto lines = run(session, "gen alive planted 25 0.0 1");
  ASSERT_TRUE(lines[0].starts_with("instance alive"));
  lines = run(session, "submit alive hk");
  ASSERT_TRUE(lines[0].starts_with("ticket "));
  lines = run(session, "wait " + lines[0].substr(7));
  EXPECT_NE(lines[0].find("cardinality=25"), std::string::npos);
}

TEST(ServeSession, QuotaExhaustionAnswersTypedError) {
  MatchingService service(tiny_service_options());
  SessionContext context(service);
  Session::Options options;
  options.quota = 2;
  Session session(context, options);
  EXPECT_TRUE(run(session, "gen a planted 20 0.0 1")[0].starts_with(
      "instance a"));
  EXPECT_TRUE(run(session, "stats")[0].starts_with("stats "));
  const auto lines = run(session, "stats");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].starts_with("error code=quota-exceeded"));
  EXPECT_EQ(session.quota_rejections(), 1u);
  EXPECT_EQ(session.requests(), 2u);
}

TEST(ServeSession, AuthGate) {
  MatchingService service(tiny_service_options());
  SessionContext context(service);
  Session::Options options;
  options.auth_token = "s3cret";
  Session session(context, options);
  // Anything before auth is refused.
  auto lines = run(session, "stats");
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_TRUE(lines[0].starts_with("error code=unauthorized"));
  // A wrong token is refused and does not authenticate.
  lines = run(session, "auth wrong");
  EXPECT_TRUE(lines[0].starts_with("error code=unauthorized"));
  EXPECT_FALSE(session.authed());
  // The right token opens the session.
  lines = run(session, "auth s3cret");
  EXPECT_EQ(lines[0], "ok auth");
  EXPECT_TRUE(session.authed());
  lines = run(session, "stats");
  EXPECT_TRUE(lines[0].starts_with("stats "));
}

TEST(ServeSession, OversizedLineClosesSession) {
  MatchingService service(tiny_service_options());
  SessionContext context(service);
  Session::Options options;
  options.limits.max_line_bytes = 64;
  Session session(context, options);
  const Session::Outcome out =
      session.execute("submit " + std::string(100, 'x') + " hk");
  ASSERT_EQ(out.lines.size(), 1u);
  EXPECT_TRUE(out.lines[0].starts_with("error code=line-too-long"));
  EXPECT_TRUE(out.close);
}

TEST(ServeSession, ShutdownOutcome) {
  MatchingService service(tiny_service_options());
  SessionContext context(service);
  Session session(context);
  const Session::Outcome out = session.execute("shutdown");
  ASSERT_EQ(out.lines.size(), 1u);
  EXPECT_EQ(out.lines[0], "ok shutdown");
  EXPECT_TRUE(out.shutdown);
}

}  // namespace
}  // namespace bpm::serve
