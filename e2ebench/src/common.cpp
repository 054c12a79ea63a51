#include "common.hpp"

#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace e2e {

using bpm::graph::BipartiteGraph;
using bpm::graph::index_t;

// --- report -----------------------------------------------------------------

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    std::cerr << "warning: metric " << name << " is not finite; reported as 0\n";
    value = 0.0;
  }
  metrics.push_back({name, {value, unit}});
}

void Report::wrong(const std::string& what) {
  correct = false;
  std::cerr << "WRONG: " << what << "\n";
}

void note(const std::string& line) { std::cout << "# " << line << "\n"; }

void print_result(const Report& report) {
  std::ostringstream os;
  os << "{\"correct\": " << (report.correct ? "true" : "false")
     << ", \"attempted\": " << report.attempted
     << ", \"failed\": " << report.failed << ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& [name, vu] = report.metrics[i];
    std::snprintf(buf, sizeof(buf), "%.12g", vu.first);
    os << (i ? ", " : "") << "\"" << name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << vu.second << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// --- oracle -----------------------------------------------------------------

index_t oracle_maximum(const BipartiteGraph& g) {
  // Hopcroft–Karp: BFS layers from the free columns, then vertex-disjoint
  // shortest augmenting paths by iterative DFS along the layers.
  const index_t n = g.num_cols();
  const index_t m = g.num_rows();
  const auto& ptr = g.col_ptr();
  const auto& adj = g.col_adj();
  std::vector<index_t> col_mate(static_cast<std::size_t>(n), -1);
  std::vector<index_t> row_mate(static_cast<std::size_t>(m), -1);
  std::vector<index_t> dist(static_cast<std::size_t>(n));
  std::vector<index_t> queue;
  std::vector<std::int64_t> next(static_cast<std::size_t>(n));
  std::vector<index_t> stack;
  constexpr index_t kInf = std::numeric_limits<index_t>::max();
  index_t matched = 0;
  for (;;) {
    queue.clear();
    for (index_t v = 0; v < n; ++v) {
      dist[v] = col_mate[v] < 0 ? 0 : kInf;
      if (col_mate[v] < 0) queue.push_back(v);
    }
    index_t free_dist = kInf;
    for (std::size_t h = 0; h < queue.size(); ++h) {
      const index_t v = queue[h];
      if (dist[v] >= free_dist) continue;
      for (auto e = ptr[v]; e < ptr[v + 1]; ++e) {
        const index_t w = row_mate[adj[e]];
        if (w < 0) {
          free_dist = std::min(free_dist, dist[v] + 1);
        } else if (dist[w] == kInf) {
          dist[w] = dist[v] + 1;
          queue.push_back(w);
        }
      }
    }
    if (free_dist == kInf) break;
    for (index_t v = 0; v < n; ++v) next[v] = ptr[v];
    for (index_t root = 0; root < n; ++root) {
      if (col_mate[root] >= 0) continue;
      stack.assign(1, root);
      while (!stack.empty()) {
        const index_t v = stack.back();
        bool advanced = false;
        for (; next[v] < ptr[v + 1]; ++next[v]) {
          const index_t u = adj[next[v]];
          const index_t w = row_mate[u];
          if (w < 0 && dist[v] + 1 == free_dist) {
            // Augment along the stack: each column takes the row its
            // cursor points at.
            for (std::size_t k = stack.size(); k-- > 0;) {
              const index_t c = stack[k];
              const index_t r = adj[next[c]];
              row_mate[r] = c;
              col_mate[c] = r;
            }
            ++matched;
            stack.clear();
            advanced = true;
            break;
          }
          if (w >= 0 && dist[w] == dist[v] + 1) {
            stack.push_back(w);
            advanced = true;
            break;
          }
        }
        if (advanced) continue;
        dist[v] = kInf;  // dead end: never revisit in this phase
        stack.pop_back();
        if (!stack.empty()) ++next[stack.back()];
      }
    }
  }
  return matched;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0x7fffffffffffull;
}

// --- statistics -------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double tail_quantile(std::size_t samples) {
  if (samples == 0) return 0.5;
  const double q = 1.0 - 10.0 / static_cast<double>(samples);
  return std::clamp(q, 0.5, 0.95);
}

double median_latency(const std::vector<Sample>& samples) {
  std::vector<double> ms;
  ms.reserve(samples.size());
  for (const Sample& s : samples) ms.push_back(s.latency_ms);
  return median(std::move(ms));
}

void request_metrics(Report& report, std::vector<Sample> samples,
                     std::size_t period, std::uint64_t attempted,
                     std::uint64_t failed) {
  constexpr std::size_t kMinWindow = 200;
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.done_ms < b.done_ms; });
  const std::size_t n = samples.size();
  const std::size_t windows = std::clamp<std::size_t>(n / kMinWindow, 1, 10);
  const std::size_t size =
      std::max(period, n / windows / std::max<std::size_t>(period, 1) * period);
  std::vector<double> p50, p95, rps;
  double tail = 0.95;
  for (std::size_t w = 0, begin = 0; w < windows && begin < n; ++w) {
    // The last window takes the remainder.
    const std::size_t end = w + 1 == windows ? n : std::min(n, begin + size);
    std::vector<double> ms;
    for (std::size_t i = begin; i < end; ++i) ms.push_back(samples[i].latency_ms);
    tail = tail_quantile(ms.size());
    p50.push_back(quantile(ms, 0.5));
    p95.push_back(quantile(ms, tail));
    const double from = begin == 0 ? 0.0 : samples[begin - 1].done_ms;
    const double span_ms = samples[end - 1].done_ms - from;
    rps.push_back(span_ms > 0 ? 1e3 * static_cast<double>(end - begin) / span_ms
                              : 0.0);
    begin = end;
  }
  report.metric("request_ms.p50", median(p50), "ms");
  report.metric("request_ms.p95", median(p95), "ms");
  report.metric("throughput_rps", median(rps), "1/s");
  report.metric("success_rate",
                attempted ? 1.0 - static_cast<double>(failed) /
                                      static_cast<double>(attempted)
                          : 0.0,
                "ratio");
  std::ostringstream os;
  os << "requests: " << n << " completed of " << attempted << " attempted ("
     << failed << " failed), medians over " << p50.size() << " windows of ~"
     << n / std::max<std::size_t>(p50.size(), 1)
     << " requests; request_ms.p95 is the p" << tail * 100.0
     << " of each window";
  note(os.str());
}

// --- machine ----------------------------------------------------------------

namespace {

/// Seconds one thread needs for a fixed amount of integer work, measured
/// while `threads` threads do the same work concurrently.
double spin_seconds(unsigned threads) {
  std::atomic<std::uint64_t> sink{0};
  const auto work = [&sink] {
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 30'000'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_add(x, std::memory_order_relaxed);
  };
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return ms_since(t0) / 1e3;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double status_kb(pid_t pid, std::string_view key) {
  const std::string status = read_file("/proc/" + std::to_string(pid) + "/status");
  const std::size_t at = status.find(std::string(key) + ":");
  if (at == std::string::npos) return 0.0;
  return std::strtod(status.c_str() + at + key.size() + 1, nullptr);
}

}  // namespace

void machine_block(const Config& cfg, unsigned clients) {
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  const double one = spin_seconds(1);
  const double all = spin_seconds(cpus);
  const double effective = all > 0 ? cpus * one / all : 0.0;
  std::ostringstream os;
  os << "machine {\"logical_cpus\": " << cpus
     << ", \"effective_parallelism\": " << effective
     << ", \"backend\": \"host\", \"build_type\": \"" << E2E_BUILD_TYPE
     << "\", \"git_sha\": \"" << cfg.git_sha << "\", \"workload\": \""
     << cfg.workload << "\", \"seed\": " << cfg.seed
     << ", \"clients\": " << clients
     << ", \"serve_workers\": " << cfg.serve_workers
     << ", \"transport_executors\": " << cfg.transport_executors
     << ", \"device_threads\": " << cfg.threads
     << ", \"solver_threads\": " << cfg.threads
     << ", \"setup_reps\": " << cfg.setup_reps << "}";
  note(os.str());
  if (effective + 0.25 < static_cast<double>(cfg.threads))
    std::cerr << "warning: the machine delivered " << effective
              << " effective cores, below the " << cfg.threads
              << " configured solver threads — a starved box, not a "
                 "regression, may explain slow results\n";
}

double rss_mb(pid_t pid) { return status_kb(pid, "VmRSS") / 1024.0; }
double peak_rss_mb(pid_t pid) { return status_kb(pid, "VmHWM") / 1024.0; }

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

// --- server process ---------------------------------------------------------

ServerProcess::ServerProcess(const Config& cfg) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> args = {
      cfg.serve_binary,
      "--listen", "0",
      "--backend", "host",
      "--workers", std::to_string(cfg.serve_workers),
      "--device-threads", std::to_string(cfg.threads),
      "--transport-executors", std::to_string(cfg.transport_executors),
      "--max-clients", "16",
      // Bounded ticket ledger, so resident memory does not depend on how
      // many requests a fast build completes in the measured phase.
      "--retention", "4096"};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const int rc = posix_spawn(&pid_, argv[0], &actions, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    ::close(out_fd_);
    throw std::runtime_error("cannot start " + cfg.serve_binary);
  }

  // Wait for "listening on <port>".
  std::string buffer;
  const auto deadline = Clock::now() + std::chrono::seconds(60);
  while (port_ == 0) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      if (line.starts_with("listening on "))
        port_ = static_cast<std::uint16_t>(std::stoi(line.substr(13)));
      continue;
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - Clock::now())
                          .count();
    pollfd p{out_fd_, POLLIN, 0};
    char buf[512];
    ssize_t n = 0;
    if (left <= 0 || ::poll(&p, 1, static_cast<int>(left)) <= 0 ||
        (n = ::read(out_fd_, buf, sizeof(buf))) <= 0) {
      reap(true);
      throw std::runtime_error("bpm_serve did not start listening");
    }
    buffer.append(buf, static_cast<std::size_t>(n));
  }
}

ServerProcess::~ServerProcess() { reap(true); }

void ServerProcess::shutdown() {
  if (pid_ < 0) return;
  try {
    Client client(port_);
    client.call("shutdown");
  } catch (const std::exception& e) {
    std::cerr << "warning: shutdown request failed: " << e.what() << "\n";
  }
  reap(false);
}

void ServerProcess::reap(bool force) {
  if (pid_ < 0) return;
  if (force) ::kill(pid_, SIGKILL);
  const auto deadline = Clock::now() + std::chrono::seconds(30);
  for (;;) {
    // Keep the child's stdout drained so its exit message cannot block it.
    char buf[512];
    pollfd p{out_fd_, POLLIN, 0};
    if (::poll(&p, 1, 20) > 0) (void)::read(out_fd_, buf, sizeof(buf));
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || r < 0) break;
    if (Clock::now() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
  }
  ::close(out_fd_);
  out_fd_ = -1;
  pid_ = -1;
}

// --- protocol client --------------------------------------------------------

Client::Client(std::uint16_t port) : line_("127.0.0.1", port) {}

std::string Client::call(std::string_view line) {
  line_.send_line(line);
  std::optional<std::string> reply = line_.recv_line(120'000);
  if (!reply)
    throw std::runtime_error("no reply to '" + std::string(line) + "'");
  return *reply;
}

std::map<std::string, std::map<std::string, double>> Client::stats() {
  line_.send_line("stats");
  std::map<std::string, std::map<std::string, double>> out;
  for (;;) {
    std::optional<std::string> line = line_.recv_line(120'000);
    if (!line) throw std::runtime_error("incomplete stats reply");
    const std::string kind = line->substr(0, line->find(' '));
    // Engine 0 is the only engine; per-client lines are summed up by the
    // transport line.
    if (kind == "stats" || kind == "cache" || kind == "transport" ||
        (kind == "engine" && line->starts_with("engine 0 "))) {
      std::istringstream is(*line);
      for (std::string tok; is >> tok;) {
        const std::size_t eq = tok.find('=');
        if (eq == std::string::npos) continue;
        out[kind][tok.substr(0, eq)] = std::strtod(tok.c_str() + eq + 1, nullptr);
      }
    }
    if (kind == "transport") return out;
  }
}

double number_field(std::string_view line, std::string_view key,
                    double fallback) {
  std::size_t at = 0;
  while ((at = line.find(key, at)) != std::string_view::npos) {
    const std::size_t eq = at + key.size();
    if ((at == 0 || line[at - 1] == ' ') && eq < line.size() && line[eq] == '=') {
      double out = fallback;
      const auto [ptr, ec] =
          std::from_chars(line.data() + eq + 1, line.data() + line.size(), out);
      return ec == std::errc() && (ptr == line.data() + line.size() || *ptr == ' ')
                 ? out
                 : fallback;
    }
    at = eq;
  }
  return fallback;
}

// --- traces -----------------------------------------------------------------

bpm::obs::Span bench_span(bpm::obs::Tracer* tracer, std::string_view name,
                          std::uint64_t id) {
  bpm::obs::Span sp = bpm::obs::span(tracer, name, "bench");
  if (sp) sp.arg("id", static_cast<std::int64_t>(id));
  return sp;
}

std::string trace_path(const Config& cfg, const std::string& suffix) {
  return cfg.trace_dir + "/" + cfg.workload + "-seed" +
         std::to_string(cfg.seed) + suffix + ".json";
}

void write_trace(const Config& cfg, const bpm::obs::Tracer& tracer,
                 const std::string& suffix) {
  const std::string path = trace_path(cfg, suffix);
  if (!tracer.write_file(path))
    std::cerr << "warning: cannot write trace " << path << "\n";
  else
    note("trace written to " + path + " (" +
         std::to_string(tracer.events().size()) + " events, " +
         std::to_string(tracer.dropped()) + " dropped)");
}

SelfTimes self_times(const std::vector<bpm::obs::TraceEvent>& events) {
  std::map<std::int64_t, std::vector<const bpm::obs::TraceEvent*>> by_id;
  for (const bpm::obs::TraceEvent& ev : events) {
    if (ev.cat != "bench" || ev.ph != 'X') continue;
    const std::size_t at = ev.args.find("\"id\":");
    if (at == std::string::npos) continue;
    std::int64_t id = 0;
    const char* begin = ev.args.data() + at + 5;
    std::from_chars(begin, ev.args.data() + ev.args.size(), id);
    by_id[id].push_back(&ev);
  }

  SelfTimes out;
  for (auto& [id, spans] : by_id) {
    const bpm::obs::TraceEvent* request = nullptr;
    const bpm::obs::TraceEvent* replay = nullptr;
    for (const auto* ev : spans) {
      if (ev->name == "request") request = ev;
      if (ev->name == "replay") replay = ev;
    }
    if (!request || !replay) continue;
    // Nesting by time on the replay's row: a span's parent is the
    // innermost earlier span on the same row that encloses it.
    std::vector<const bpm::obs::TraceEvent*> row;
    for (const auto* ev : spans)
      if (ev->tid == replay->tid) row.push_back(ev);
    std::sort(row.begin(), row.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::map<const bpm::obs::TraceEvent*, double> child_us;
    std::map<const bpm::obs::TraceEvent*, const bpm::obs::TraceEvent*> parent;
    std::vector<const bpm::obs::TraceEvent*> stack;
    for (const auto* ev : row) {
      while (!stack.empty() &&
             stack.back()->ts_us + stack.back()->dur_us < ev->ts_us + ev->dur_us)
        stack.pop_back();
      if (!stack.empty()) {
        parent[ev] = stack.back();
        child_us[stack.back()] += static_cast<double>(ev->dur_us);
      }
      stack.push_back(ev);
    }
    double replayed_us = 0.0, admit_us = 0.0;
    for (const auto* ev : row) {
      if (parent[ev] != replay) continue;
      const double self_us = static_cast<double>(ev->dur_us) - child_us[ev];
      const std::string layer = ev->name.substr(0, ev->name.find('.'));
      out.layer_ms[layer] += self_us / 1e3;
      replayed_us += static_cast<double>(ev->dur_us);
      if (layer == "admit") admit_us += static_cast<double>(ev->dur_us);
    }
    const auto request_us = static_cast<double>(request->dur_us);
    out.unattributed_ms.push_back(std::max(0.0, request_us - replayed_us) / 1e3);
    out.admit_share.push_back(request_us > 0 ? admit_us / request_us : 0.0);
    ++out.requests;
  }
  for (auto& [layer, ms] : out.layer_ms)
    ms /= static_cast<double>(std::max<std::size_t>(out.requests, 1));
  return out;
}

double layer_ms(const SelfTimes& st, const std::string& layer) {
  const auto it = st.layer_ms.find(layer);
  return it == st.layer_ms.end() ? 0.0 : it->second;
}

void self_time_metrics(Report& report, const SelfTimes& st) {
  std::string top = "unattributed";
  double top_ms = median(st.unattributed_ms);
  for (const std::string& layer : kLayers) {
    const double ms = layer_ms(st, layer);
    report.metric("self_ms." + layer, ms, "ms");
    if (ms > top_ms) {
      top = layer;
      top_ms = ms;
    }
  }
  report.metric("unattributed_ms.p50", median(st.unattributed_ms), "ms");
  report.metric("admit.share", median(st.admit_share), "ratio");
  std::ostringstream os;
  os << "self time over " << st.requests << " replayed requests: largest is "
     << top << " (" << top_ms << " ms per request)";
  note(os.str());
}

}  // namespace e2e
