#include "harness_common.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "graph/generators.hpp"
#include "matching/greedy.hpp"

namespace bpm::bench {

void register_suite_flags(CliParser& cli, int default_stride,
                          const std::string& default_algos, bool with_json) {
  cli.add_option("scale", "instance size relative to the paper's (Table I)",
                 "0.015625");
  cli.add_option("seed", "generator seed", "1");
  cli.add_option("stride", "use every stride-th instance of the 28",
                 std::to_string(default_stride));
  cli.add_option("threads",
                 "engine worker threads for solves and suite building "
                 "(0 = hardware)",
                 "0");
  cli.add_flag("verbose", "per-instance rows in addition to aggregates");
  cli.add_flag("csv", "emit CSV instead of aligned tables");
  cli.add_flag("no-model",
               "report measured wall time for GPU algorithms instead "
               "of modeled C2050 device time");
  if (with_json)
    cli.add_option("json",
                   "write instance x algo results (time/launches/matched) as "
                   "JSON to this path (empty = off)",
                   "");
  register_observability_flags(cli);
  if (!default_algos.empty()) add_algo_flag(cli, default_algos);
}

void register_generated_suite_flags(CliParser& cli,
                                    const GeneratedSuiteDefaults& defaults) {
  cli.add_option("n", "base column count of the generated instances",
                 std::to_string(defaults.n));
  cli.add_option("reps",
                 "timed repetitions per (instance, spec); best wall wins",
                 std::to_string(defaults.reps));
  cli.add_option("seed", "generator seed", std::to_string(defaults.seed));
  cli.add_option("threads", "engine worker threads (0 = hardware)", "0");
  cli.add_flag("csv", "emit CSV instead of aligned tables");
  cli.add_option("json",
                 "write instance x spec results (time/launches/matched) as "
                 "JSON to this path (empty = off)",
                 "");
  register_observability_flags(cli);
  add_algo_flag(cli, defaults.algos);
}

SuiteOptions generated_suite_options_from_cli(const CliParser& cli) {
  exit_if_list_algos(cli);
  SuiteOptions opt;
  opt.n = static_cast<graph::index_t>(cli.get_int("n"));
  opt.reps = std::max(1, static_cast<int>(cli.get_int("reps")));
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  opt.threads = static_cast<unsigned>(cli.get_int("threads"));
  opt.csv = cli.get_flag("csv");
  opt.json_path = cli.get_string("json");
  opt.algos = solver_specs_from_cli(cli);
  observability_from_cli(cli, opt);
  if (opt.n < 64) throw std::invalid_argument("--n must be at least 64");
  if (opt.algos.empty()) throw std::invalid_argument("--algo must be set");
  return opt;
}

void register_observability_flags(CliParser& cli) {
  cli.add_option("trace",
                 "record the run (solve phases, device launches) as "
                 "chrome://tracing JSON to this path (empty = off)",
                 "");
}

void observability_from_cli(const CliParser& cli, SuiteOptions& opt) {
  if (cli.has("trace")) opt.trace_path = cli.get_string("trace");
  if (!opt.trace_path.empty()) {
    opt.trace_sink = std::make_shared<obs::Tracer>();
    opt.trace_sink->enable();
  }
}

device::Device& attach_tracer(const SuiteOptions& opt, device::Device& dev) {
  if (opt.trace_sink != nullptr) dev.set_tracer(opt.trace_sink.get());
  return dev;
}

void write_observability(const SuiteOptions& opt) {
  if (!opt.trace_path.empty() && opt.trace_sink != nullptr) {
    if (!opt.trace_sink->write_file(opt.trace_path))
      throw std::runtime_error("cannot write trace to " + opt.trace_path);
    std::cout << "# trace written to " << opt.trace_path << " ("
              << opt.trace_sink->events().size() << " events";
    if (const std::uint64_t dropped = opt.trace_sink->dropped(); dropped > 0)
      std::cout << ", " << dropped << " dropped";
    std::cout << ")\n";
  }
}

SuiteOptions suite_options_from_cli(const CliParser& cli) {
  exit_if_list_algos(cli);
  SuiteOptions opt;
  opt.scale = cli.get_double("scale");
  opt.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  opt.stride = static_cast<int>(cli.get_int("stride"));
  opt.threads = static_cast<unsigned>(cli.get_int("threads"));
  opt.verbose = cli.get_flag("verbose");
  opt.csv = cli.get_flag("csv");
  opt.no_model = cli.get_flag("no-model");
  if (cli.has("json")) opt.json_path = cli.get_string("json");
  if (cli.has("algo")) opt.algos = solver_specs_from_cli(cli);
  observability_from_cli(cli, opt);
  return opt;
}

void set_init(BuiltInstance& bi, matching::ValidMatching init) {
  bi.init = std::move(init);
  bi.initial_cardinality = bi.init.cardinality();
  bi.features = policy::compute_features(bi.g, bi.initial_cardinality);
}

BuiltInstance build_instance(const graph::Instance& meta,
                             const SuiteOptions& opt, InitFn init) {
  BuiltInstance bi{meta, meta.build(opt.scale, opt.seed + static_cast<std::uint64_t>(meta.id))};
  set_init(bi, init(bi.g));
  return bi;
}

std::vector<BuiltInstance> build_massive_suite(const SuiteOptions& opt,
                                               InitFn init) {
  // ~10x the realised edge count of the largest Table I analogue at the
  // default 1/64 scale (~1.4M edges): both instances land near 13M edges
  // at scale 1.0.  Rows < cols keeps them deficient, so push-relabel
  // stays busy past the greedy init instead of retiring immediately.
  const auto sized = [&](double v) {
    return std::max<graph::index_t>(
        64, static_cast<graph::index_t>(v * opt.scale));
  };
  struct Massive {
    int id;
    const char* name;
    graph::BipartiteGraph g;
  };
  std::vector<Massive> metas;
  // Hubby shape: a hub column every 500 columns (~0.4% of rows each) over
  // a sparse background — the straggler shape edge balancing targets.
  metas.push_back({101, "massive_hubs",
                   graph::gen::huge_bipartite(sized(920e3), sized(1e6), 6.0,
                                              0.004, 500, opt.seed + 101)});
  // Uniform control: same scale, no hubs — nothing for balancing to fix.
  metas.push_back({102, "massive_uniform",
                   graph::gen::huge_bipartite(sized(960e3), sized(1e6), 13.0,
                                              0.0, 0, opt.seed + 102)});
  std::vector<BuiltInstance> out;
  out.reserve(metas.size());
  for (Massive& m : metas) {
    BuiltInstance bi;
    bi.meta.id = m.id;
    bi.meta.name = m.name;
    bi.meta.cls = graph::InstanceClass::kCombinat;
    bi.meta.paper.rows = m.g.num_rows();
    bi.meta.paper.cols = m.g.num_cols();
    bi.meta.paper.edges = m.g.num_edges();
    bi.g = std::move(m.g);
    set_init(bi, init(bi.g));
    out.push_back(std::move(bi));
  }
  return out;
}

std::vector<SuiteMember> build_generated_suite(graph::index_t n,
                                               std::uint64_t seed,
                                               InitFn init) {
  namespace gen = graph::gen;
  using graph::index_t;
  const auto frac = [](index_t base, double f) {
    return std::max<index_t>(1, static_cast<index_t>(f * base));
  };
  struct Spec {
    const char* name;
    const char* suite;
    std::function<graph::BipartiteGraph()> make;
  };
  const std::vector<Spec> specs{
      // Uniform control group: no degree skew, so edge balancing must
      // not hurt.
      {"uniform_random", "uniform",
       [n, seed] {
         return gen::random_uniform(n, n, 5 * static_cast<graph::offset_t>(n),
                                    seed);
       }},
      // The skewed group's deficiency regime minus the skew: separates
      // the frontier-compaction effect from the balancing one.
      {"uniform_deficient", "uniform",
       [n, seed, frac] {
         return gen::random_uniform(frac(n, 0.95), n,
                                    5 * static_cast<graph::offset_t>(n), seed);
       }},
      {"planted", "uniform",
       [n, seed] { return gen::planted_perfect(n, 2.0, seed); }},
      // Skewed group: the hub-block instances keep their hubs as a
      // contiguous crawl-ordered id block (scatter = false), so a static
      // equal-column partition hands one chunk the whole block, the
      // straggler case edge balancing removes.
      {"hub_block", "skew",
       [n, seed, frac] {
         return gen::skewed_hubs(frac(n, 0.9), n, std::max<index_t>(8, n / 16),
                                 0.016, 2.5, seed, /*scatter=*/false);
       }},
      {"hub_block_sparse", "skew",
       [n, seed, frac] {
         return gen::skewed_hubs(frac(n, 0.88), n,
                                 std::max<index_t>(8, n / 12), 0.012, 2.5,
                                 seed, /*scatter=*/false);
       }},
      // Deficient power law: the heavy tail stays in the active set.
      {"power_law", "skew",
       [n, seed, frac] {
         return gen::chung_lu(frac(n, 0.9), n, 6.0, 2.2, seed);
       }},
  };
  std::vector<SuiteMember> out;
  out.reserve(specs.size());
  for (const Spec& s : specs) {
    BuiltInstance bi;
    bi.meta.name = s.name;
    bi.g = s.make();
    set_init(bi, init(bi.g));
    out.push_back({s.suite, std::move(bi)});
  }
  return out;
}

std::vector<SuiteMember> build_policy_suite(graph::index_t n,
                                            double massive_scale,
                                            std::uint64_t seed,
                                            double structured_scale) {
  // The service admits with Karp–Sipser (`admit_instance`'s default), so
  // the policy is calibrated and evaluated from that init, on every
  // member.
  std::vector<SuiteMember> out =
      build_generated_suite(n, seed, matching::karp_sipser);
  if (structured_scale > 0.0) {
    // Table I shapes with near-perfect greedy inits (meshes, traces,
    // co-author graphs): short augmenting paths make the augmenting-path
    // family (pf, hk, p-dbfs) beat push-relabel here, often severalfold —
    // the heterogeneity that makes per-instance selection worth having.
    const char* const structured[] = {"coPapersDBLP", "hugetrace-00020",
                                      "hugebubbles-00000"};
    SuiteOptions so;
    so.scale = structured_scale;
    so.seed = seed;
    for (const char* name : structured) {
      const graph::Instance* meta = nullptr;
      for (const auto& inst : graph::paper_instances())
        if (inst.name == name) meta = &inst;
      if (meta == nullptr)
        throw std::logic_error(std::string("policy suite lost instance ") +
                               name);
      out.push_back(
          {"structured", build_instance(*meta, so, matching::karp_sipser)});
    }
  }
  if (massive_scale > 0.0) {
    SuiteOptions massive;
    massive.scale = massive_scale;
    massive.seed = seed;
    for (BuiltInstance& bi :
         build_massive_suite(massive, matching::karp_sipser))
      out.push_back({"massive", std::move(bi)});
  }
  return out;
}

std::vector<BuiltInstance> build_suite(const SuiteOptions& opt,
                                       device::Device& dev) {
  const std::vector<graph::Instance> metas =
      graph::select_instances(opt.stride);
  std::vector<BuiltInstance> out(metas.size());
  // Builds are independent and deterministic in (meta, opt), so the claim
  // order changes nothing but the wall time.
  std::atomic<std::size_t> next{0};
  const std::function<void(unsigned)> slot = [&](unsigned) {
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= metas.size()) return;
      out[i] = build_instance(metas[i], opt);
    }
  };
  if (device::ThreadPool* const pool = dev.engine()->pool())
    pool->run_tasks(pool->size(), slot);
  else
    slot(0);
  return out;
}

AlgoResult run_solver(const Solver& solver, device::Device& dev,
                      const BuiltInstance& bi) {
  // Phase attribution: the tracer's per-phase totals are cumulative, so
  // this run's breakdown is the difference across the solve.
  obs::Tracer* const tracer = dev.tracer();
  const bool tracing = tracer != nullptr && tracer->enabled();
  std::map<std::string, double> before;
  if (tracing) before = tracer->totals_ms("phase");
  const JobOutcome outcome = run_verified(solver, SolveContext{.device = &dev},
                                          bi.g, bi.init, /*verify=*/true);
  AlgoResult r;
  if (tracing) {
    for (const auto& [phase, ms] : tracer->totals_ms("phase")) {
      const auto it = before.find(phase);
      const double delta = ms - (it != before.end() ? it->second : 0.0);
      if (delta > 0.0) r.phases[phase] = delta;
    }
  }
  r.seconds = outcome.stats.wall_ms / 1e3;
  r.modeled_seconds = outcome.stats.modeled_ms / 1e3;
  r.cardinality = outcome.stats.cardinality;
  r.launches = outcome.stats.device_launches;
  r.ok = outcome.ok;
  if (!r.ok)
    std::cerr << "RESULT CHECK FAILED for " << solver.name() << " on "
              << bi.meta.name << ": " << outcome.error << '\n';
  return r;
}

AlgoResult run_best_of(const Solver& solver, device::Device& dev,
                       const BuiltInstance& bi, int reps) {
  AlgoResult best = run_solver(solver, dev, bi);
  bool all_ok = best.ok;
  for (int rep = 1; rep < reps; ++rep) {
    const AlgoResult r = run_solver(solver, dev, bi);
    all_ok &= r.ok;
    if (r.seconds < best.seconds) best = r;
  }
  best.ok = all_ok;
  return best;
}

// ---- cost-model calibration (`auto_policy --emit-inc`) ---------------------

void fold_into_model(policy::CostModel& model, const BuiltInstance& bi,
                     const SolverSpec& spec, double seconds) {
  if (spec.name == "auto") return;
  model.record(policy::bucket_of(bi.features).key(), spec.canonical(),
               seconds * 1e6 / static_cast<double>(bi.features.edges));
}

std::string model_inc(const policy::CostModel& model) {
  return std::string(
             "// Embedded default policy cost model — the committed offline\n"
             "// calibration `CostModel::embedded_default()` returns.\n"
             "// Regenerate with:\n"
             "//   auto_policy --seed 1 --algo ") +
         kPolicyPool +
         " --emit-inc src/policy/default_model.inc\n"
         "// (never edit by hand; the table must stay byte-identical to\n"
         "// what CostModel::to_json emits so the round-trip test holds).\n"
         "R\"bpm_policy_model(" +
         model.to_json() + ")bpm_policy_model\"\n";
}

// ---- machine-readable results (`--json`) -----------------------------------

namespace {

/// JSON string escaping for the few metacharacters our labels can contain.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Doubles with enough digits to round-trip (max_digits10 = 17).
std::string json_number(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

JsonRecord to_json_record(const std::string& instance,
                          const std::string& suite, const std::string& algo,
                          const AlgoResult& r,
                          const policy::InstanceFeatures* features) {
  JsonRecord rec{instance,   suite,         algo, r.seconds, r.modeled_seconds,
                 r.launches, r.cardinality, r.ok, r.phases, {}};
  if (features != nullptr) {
    rec.features = {{"n", static_cast<double>(features->rows)},
                    {"m", static_cast<double>(features->cols)},
                    {"density", features->density},
                    {"skew", features->degree_skew},
                    {"deficiency_est", features->deficiency_est}};
  }
  return rec;
}

void write_json(const std::string& path, const std::string& bench,
                const std::vector<JsonRecord>& records,
                const std::vector<std::pair<std::string, double>>& summary) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_json: cannot open " + path);
  out << "{\n  \"bench\": \"" << json_escape(bench) << "\",\n"
      << "  \"schema\": 2,\n"
      << "  \"records\": [\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const JsonRecord& r = records[i];
    out << "    {\"instance\": \"" << json_escape(r.instance)
        << "\", \"suite\": \"" << json_escape(r.suite) << "\", \"algo\": \""
        << json_escape(r.algo) << "\", \"wall_s\": " << json_number(r.wall_s)
        << ", \"modeled_s\": " << json_number(r.modeled_s)
        << ", \"launches\": " << r.launches << ", \"matched\": " << r.matched
        << ", \"ok\": " << (r.ok ? "true" : "false");
    if (!r.phases.empty()) {
      out << ", \"phases\": {";
      bool sep = false;
      for (const auto& [phase, ms] : r.phases) {
        out << (sep ? ", " : "") << "\"" << json_escape(phase)
            << "\": " << json_number(ms);
        sep = true;
      }
      out << "}";
    }
    if (!r.features.empty()) {
      out << ", \"features\": {";
      bool sep = false;
      for (const auto& [name, value] : r.features) {
        out << (sep ? ", " : "") << "\"" << json_escape(name)
            << "\": " << json_number(value);
        sep = true;
      }
      out << "}";
    }
    out << "}" << (i + 1 < records.size() ? "," : "") << '\n';
  }
  out << "  ],\n  \"summary\": {";
  for (std::size_t i = 0; i < summary.size(); ++i)
    out << (i ? ", " : "") << "\"" << json_escape(summary[i].first)
        << "\": " << json_number(summary[i].second);
  out << "}\n}\n";
  if (!out.good()) throw std::runtime_error("write_json: write failed: " + path);
}

void print_header(const std::string& title, const SuiteOptions& opt,
                  std::size_t num_instances) {
  std::cout << "# " << title << '\n'
            << "# instances: " << num_instances << " (stride " << opt.stride
            << "), scale " << opt.scale << " of Table I sizes, seed "
            << opt.seed << '\n'
            << "# hardware: " << std::thread::hardware_concurrency()
            << " hardware threads\n"
            << "# note: GPU algorithms report modeled C2050 device time by"
               " default (README: Device engine); pass --no-model for"
               " measured wall time.  CPU algorithms always report wall"
               " time.\n";
}

}  // namespace bpm::bench
