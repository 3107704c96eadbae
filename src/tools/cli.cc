#include "tools/cli.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "check/checker.h"
#include "check/mrxcase.h"
#include "check/mutation_trace.h"
#include "datagen/nasa.h"
#include "datagen/xmark.h"
#include "graph/statistics.h"
#include "harness/datasets.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/query_cost.h"
#include "obs/query_diag.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "index/m_star_index.h"
#include "index/strategy_chooser.h"
#include "index/twig_eval.h"
#include "query/data_evaluator.h"
#include "query/twig.h"
#include "server/concurrent_session.h"
#include "server/query_server.h"
#include "storage/disk_m_star_index.h"
#include "storage/graph_io.h"
#include "storage/index_io.h"
#include "util/string_util.h"
#include "util/table_writer.h"
#include "util/thread_pool.h"
#include "workload/generator.h"
#include "workload/label_paths.h"
#include "xml/graph_builder.h"
#include "xml/writer.h"

namespace mrx::tools {
namespace {

constexpr const char* kUsage = R"(usage: mrx <command> [args]

commands:
  stats <graph> [--metrics prom|json]   graph shape statistics; --metrics
                                        appends the process metrics
                                        exposition (docs/OBSERVABILITY.md)
  convert <in> <out>                    convert between .xml and .mrxg
  index build <graph> <out.mrxs> --fup <expr> [--fup <expr> ...]
              [--threads N]           N>1 fans refinement target evaluation
                                      out over a thread pool; results are
                                      byte-identical for every N
                                      (docs/PERFORMANCE.md)
  index info <graph> <index.mrxs>
  query <graph> [index.mrxs] <expr> [--strategy auto|topdown|naive|bottomup|hybrid]
        [--explain] [--json]          --explain prints the strategy decision
                                      table (estimated cost per candidate)
                                      and the measured cost counters next
                                      to the answer; --json emits the
                                      explain record as one JSON line
  explain <graph> [index.mrxs] <expr> [--json]
                                      run every eligible strategy and
                                      report estimated vs actual cost per
                                      strategy (docs/OBSERVABILITY.md)
  diag <graph> [--queries N] [--count N] [--seed N] [--slow-query-ms X]
       [--watchdog-ms N] [--flight on|off] [--out DIR] [--last N]
                                      drive a seeded mini-workload through
                                      a query server from one closed-loop
                                      client and write a diagnostics
                                      bundle (flight.jsonl,
                                      slow_queries.jsonl, trace.jsonl,
                                      metrics.prom/.jsonl, diag.json) to
                                      DIR; --slow-query-ms X captures
                                      queries slower than X ms (fractional
                                      ok); --flight off disables the
                                      always-on flight recorder (overhead
                                      A/B runs); --last N bounds the
                                      flight dump
  generate <xmark|nasa|dtd-random> <out.xml|out.mrxg> [--scale S]
           [--nodes N] [--seed N]      .mrxg outputs stream the generator
                                      straight into the graph (no document
                                      in memory; scale-tier sizes OK);
                                      --nodes targets a node count directly
  workload <graph> [--count N] [--max-length L] [--seed N]
  check [--mode diff|mutate|mutate-stress] [--seed N] [--cases M]
        [--queries N] [--max-nodes N] [--out DIR] [--max-failures N]
        [--fault on] [--threads N] [--rounds N] [--refine-threads N]
        [--steps N] [--ops N] [--batches N]
        [--replay file.mrxcase|file.mrxtrace]
                                        differential correctness harness
                                        (docs/TESTING.md); exit 1 on any
                                        discrepancy or invariant violation.
                                        mutate replays seeded mutation
                                        traces through the serving
                                        writer; mutate-stress hammers a
                                        live session with concurrent
                                        readers (at least --rounds queries
                                        each) while --batches mutation
                                        batches land (0: readers and the
                                        refiner only)

numeric flags take non-negative decimal values; thread counts are at most
256.

graphs are detected by suffix: .xml (parsed) or .mrxg (binary).
)";

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

Status WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::NotFound("cannot open for writing: " + path);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) return Status::Internal("write failed: " + path);
  return Status::Ok();
}

Result<DataGraph> LoadGraph(const std::string& path) {
  MRX_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
  if (EndsWith(path, ".mrxg")) {
    return storage::DeserializeDataGraph(bytes);
  }
  return xml::BuildGraphFromXml(bytes);
}

/// Upper bound on every thread-count flag: far above the cores a run can
/// use, far below the count that exhausts a process's threads.
constexpr size_t kMaxThreads = 256;

/// Bounds on the fractional flags, so the integer sizes and nanosecond
/// counts computed from them stay in range.
constexpr double kMaxScale = 1e6;
constexpr double kMaxSlowQueryMs = 1e9;

/// Parses "--key value" style options out of `args` from `begin` on;
/// returns positional arguments. Unknown keys are an error via `err`.
struct Options {
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> flags;
  /// The first bad value Number() met, as a usage message; empty if none.
  mutable std::string bad_number;

  /// The numeric flag `key`, or `fallback` when it is absent. An empty
  /// value, trailing junk, a sign or a value above `max` yields `fallback`
  /// and records a message naming the flag in bad_number; a command
  /// checks that with BadNumber() before it acts on any value.
  template <typename T>
  T Number(const std::string& key, T fallback,
           T max = std::numeric_limits<T>::max()) const {
    const auto it = std::find_if(flags.begin(), flags.end(),
                                 [&](const auto& f) { return f.first == key; });
    if (it == flags.end()) return fallback;
    const std::string& text = it->second;
    T value{};
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    // !(value >= 0) also rejects NaN; max rejects infinity.
    if (text.empty() || ec != std::errc() || ptr != end ||
        !(value >= T{0}) || value > max) {
      if (bad_number.empty()) {
        std::ostringstream message;
        message << "--" << key << " takes a non-negative number";
        if (max != std::numeric_limits<T>::max()) message << " up to " << max;
        message << ", got '" << text << "'";
        bad_number = message.str();
      }
      return fallback;
    }
    return value;
  }

  std::string Flag(const std::string& key,
                   const std::string& fallback = "") const {
    for (const auto& [k, v] : flags) {
      if (k == key) return v;
    }
    return fallback;
  }
  std::vector<std::string> AllFlags(const std::string& key) const {
    std::vector<std::string> out;
    for (const auto& [k, v] : flags) {
      if (k == key) out.push_back(v);
    }
    return out;
  }
};

/// Flags that take no value ("--explain", not "--explain on"); they parse
/// to the value "on".
bool IsBooleanFlag(const std::string& key) {
  return key == "explain" || key == "json";
}

Result<Options> ParseOptions(const std::vector<std::string>& args,
                             size_t begin) {
  Options options;
  for (size_t i = begin; i < args.size(); ++i) {
    if (StartsWith(args[i], "--")) {
      const std::string key = args[i].substr(2);
      if (IsBooleanFlag(key)) {
        options.flags.emplace_back(key, "on");
        continue;
      }
      if (i + 1 >= args.size()) {
        return Status::InvalidArgument("missing value for " + args[i]);
      }
      options.flags.emplace_back(key, args[i + 1]);
      ++i;
    } else {
      options.positional.push_back(args[i]);
    }
  }
  return options;
}

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status << "\n";
  return 1;
}

/// True, after printing the message, when a Number() call met a bad
/// value: the command then exits 2 without acting on it.
bool BadNumber(const Options& options, std::ostream& err) {
  if (options.bad_number.empty()) return false;
  err << "error: " << options.bad_number << "\n";
  return true;
}

int CmdStats(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: mrx stats <graph> [--metrics prom|json]\n";
    return 2;
  }
  Result<DataGraph> g = LoadGraph(options.positional[0]);
  if (!g.ok()) return Fail(err, g.status());
  PrintStatistics(out, ComputeStatistics(*g));

  const std::string metrics_format = options.Flag("metrics");
  if (!metrics_format.empty()) {
    // Surface the loaded graph in the registry so the exposition is
    // meaningful even for this one-shot command.
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetGauge("mrx_graph_nodes")->Set(
        static_cast<int64_t>(g->num_nodes()));
    registry.GetGauge("mrx_graph_edges")->Set(
        static_cast<int64_t>(g->num_edges()));
    registry.GetGauge("mrx_graph_labels")->Set(
        static_cast<int64_t>(g->symbols().size()));
    const obs::MetricsSnapshot snapshot = registry.Snapshot();
    out << "\n";
    if (metrics_format == "prom") {
      obs::WritePrometheusText(snapshot, out);
    } else if (metrics_format == "json") {
      obs::WriteJsonlSnapshot(snapshot, out);
    } else {
      err << "unknown metrics format: " << metrics_format
          << " (expected prom or json)\n";
      return 2;
    }
  }
  return 0;
}

int CmdConvert(const Options& options, std::ostream& out,
               std::ostream& err) {
  if (options.positional.size() != 2) {
    err << "usage: mrx convert <in> <out>\n";
    return 2;
  }
  const std::string& in_path = options.positional[0];
  const std::string& out_path = options.positional[1];
  Result<DataGraph> g = LoadGraph(in_path);
  if (!g.ok()) return Fail(err, g.status());
  Status s = Status::Ok();
  if (EndsWith(out_path, ".mrxg")) {
    s = WriteFile(out_path, storage::SerializeDataGraph(*g));
  } else {
    Result<std::string> text = xml::WriteGraphAsXml(*g);
    if (!text.ok()) return Fail(err, text.status());
    s = WriteFile(out_path, *text);
  }
  if (!s.ok()) return Fail(err, s);
  out << "wrote " << out_path << " (" << g->num_nodes() << " nodes)\n";
  return 0;
}

int CmdIndexBuild(const Options& options, std::ostream& out,
                  std::ostream& err) {
  if (options.positional.size() != 2) {
    err << "usage: mrx index build <graph> <out.mrxs> --fup <expr> ...\n";
    return 2;
  }
  const size_t threads = options.Number<size_t>("threads", 1, kMaxThreads);
  if (BadNumber(options, err)) return 2;
  Result<DataGraph> g = LoadGraph(options.positional[0]);
  if (!g.ok()) return Fail(err, g.status());
  MStarIndex index(*g);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) {
    pool = std::make_unique<ThreadPool>(threads);
    index.set_thread_pool(pool.get());
  }
  std::vector<PathExpression> fups;
  for (const std::string& text : options.AllFlags("fup")) {
    auto fup = PathExpression::Parse(text, g->symbols());
    if (!fup.ok()) return Fail(err, fup.status());
    fups.push_back(*std::move(fup));
    out << "refining for " << text << "\n";
  }
  index.RefineBatch(fups);
  Status s = storage::SaveMStarIndexToFile(index, options.positional[1]);
  if (!s.ok()) return Fail(err, s);
  out << "wrote " << options.positional[1] << ": "
      << index.num_components() << " components, "
      << index.PhysicalNodeCount() << " physical nodes\n";
  return 0;
}

int CmdIndexInfo(const Options& options, std::ostream& out,
                 std::ostream& err) {
  if (options.positional.size() != 2) {
    err << "usage: mrx index info <graph> <index.mrxs>\n";
    return 2;
  }
  Result<DataGraph> g = LoadGraph(options.positional[0]);
  if (!g.ok()) return Fail(err, g.status());
  Result<MStarIndex> index =
      storage::LoadMStarIndexFromFile(*g, options.positional[1]);
  if (!index.ok()) return Fail(err, index.status());
  out << "components: " << index->num_components() << "\n";
  for (size_t i = 0; i < index->num_components(); ++i) {
    out << "  I" << i << ": " << index->component(i).num_nodes()
        << " nodes, " << index->component(i).num_edges() << " edges\n";
  }
  const MStarIndex::PhysicalSize physical = index->Physical();
  out << "physical: " << physical.nodes << " nodes, " << physical.edges
      << " edges\n";
  return 0;
}

/// Runs `query` against `index` with `strategy`, collecting the
/// actual-cost counters, and fills `diag` with the full explain record
/// (`chooser` supplies the decision table). Returns the query result.
QueryResult RunExplained(const MStarIndex& index,
                         const StrategyChooser& chooser, const DataGraph& g,
                         const PathExpression& query,
                         MStarQueryStrategy strategy, obs::QueryDiag* diag) {
  obs::QueryCostCounters cost;
  QueryResult result;
  const uint64_t start_ns = obs::MonotonicNowNs();
  {
    obs::QueryCostScope scope(&cost);
    DataEvaluator validator(g);
    result = index.Query(strategy, query, &validator);
  }
  const uint64_t eval_ns = obs::MonotonicNowNs() - start_ns;
  diag->query = query.ToString(g.symbols());
  diag->precise = result.precise;
  ExplainStrategy(chooser, query, strategy, diag);
  diag->index_nodes_visited = result.stats.index_nodes_visited;
  diag->data_nodes_validated = result.stats.data_nodes_validated;
  diag->SetCost(cost);
  diag->eval_ns = eval_ns;
  diag->latency_ns = eval_ns;
  diag->answer_size = result.answer.size();
  return result;
}

Result<SessionOptions::Strategy> ParseStrategy(const std::string& name) {
  if (name == "auto") return SessionOptions::Strategy::kAuto;
  if (name == "topdown") return SessionOptions::Strategy::kTopDown;
  if (name == "naive") return SessionOptions::Strategy::kNaive;
  if (name == "bottomup") return SessionOptions::Strategy::kBottomUp;
  if (name == "hybrid") return SessionOptions::Strategy::kHybrid;
  return Status::InvalidArgument("unknown strategy: " + name);
}

/// The index `mrx query`/`explain` run on: the saved one when the command
/// names an index file (three positionals), else the fresh A(0) hierarchy.
Result<MStarIndex> QueryIndex(const Options& options, const DataGraph& g) {
  if (options.positional.size() == 3) {
    return storage::LoadMStarIndexFromFile(g, options.positional[1]);
  }
  return MStarIndex(g);
}

void PrintAnswer(const QueryResult& result, const DataGraph& g,
                 std::ostream& out) {
  out << result.answer.size() << " nodes (cost " << result.stats.total()
      << (result.precise ? ", precise" : ", validated") << "):";
  size_t shown = 0;
  for (NodeId n : result.answer) {
    if (++shown > 20) {
      out << " ...";
      break;
    }
    out << " " << n << ":" << g.label_name(n);
  }
  out << "\n";
}

int CmdQuery(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() < 2 || options.positional.size() > 3) {
    err << "usage: mrx query <graph> [index.mrxs] <expr> [--strategy ...] "
           "[--explain] [--json]\n";
    return 2;
  }
  Result<DataGraph> g = LoadGraph(options.positional[0]);
  if (!g.ok()) return Fail(err, g.status());

  const std::string& expr = options.positional.back();
  Result<MStarIndex> index = QueryIndex(options, *g);
  if (!index.ok()) return Fail(err, index.status());

  // Expressions with [...] predicates are twigs: the index answers the
  // trunk, predicates validate against the data graph.
  if (expr.find('[') != std::string::npos) {
    auto twig = TwigQuery::Parse(expr, g->symbols());
    if (!twig.ok()) return Fail(err, twig.status());
    DataEvaluator evaluator(*g);
    QueryResult result = EvaluateTwigWithIndex(*index, *twig, evaluator);
    out << result.answer.size() << " nodes (cost " << result.stats.total()
        << ", twig):";
    size_t shown = 0;
    for (NodeId n : result.answer) {
      if (++shown > 20) {
        out << " ...";
        break;
      }
      out << " " << n << ":" << g->label_name(n);
    }
    out << "\n";
    return 0;
  }

  auto query = PathExpression::Parse(expr, g->symbols());
  if (!query.ok()) return Fail(err, query.status());

  const bool explain = options.Flag("explain") == "on";
  const bool as_json = options.Flag("json") == "on";
  Result<SessionOptions::Strategy> strategy =
      ParseStrategy(options.Flag("strategy", "auto"));
  if (!strategy.ok()) {
    err << strategy.status().message() << "\n";
    return 2;
  }

  StrategyChooser chooser(*index);
  obs::QueryDiag diag;
  QueryResult result =
      RunExplained(*index, chooser, *g, *query,
                   ResolveStrategy(*strategy, chooser, *query), &diag);
  if (explain && as_json) {
    diag.WriteJson(out);
    out << "\n";
    return 0;
  }
  if (explain) diag.WriteText(out);
  PrintAnswer(result, *g, out);
  return 0;
}

int CmdExplain(const Options& options, std::ostream& out,
               std::ostream& err) {
  if (options.positional.size() < 2 || options.positional.size() > 3) {
    err << "usage: mrx explain <graph> [index.mrxs] <expr> [--json]\n";
    return 2;
  }
  Result<DataGraph> g = LoadGraph(options.positional[0]);
  if (!g.ok()) return Fail(err, g.status());
  auto query = PathExpression::Parse(options.positional.back(), g->symbols());
  if (!query.ok()) return Fail(err, query.status());
  const bool as_json = options.Flag("json") == "on";
  Result<MStarIndex> index = QueryIndex(options, *g);
  if (!index.ok()) return Fail(err, index.status());
  StrategyChooser chooser(*index);

  // Run every *eligible* strategy so estimated-vs-actual is measured, not
  // extrapolated; ineligible rows keep their estimate with actuals blank.
  TableWriter table({"strategy", "eligible", "est_cost", "index_nodes",
                     "extent_scanned", "validated", "eval_us", "answer",
                     "chosen"});
  for (const StrategyCandidate& c : chooser.ExplainChoice(*query)) {
    if (!c.eligible) {
      table.AddRowValues(StrategyName(c.strategy), "no", c.estimated_cost,
                         "-", "-", "-", "-", "-", c.chosen ? "<-" : "");
      continue;
    }
    obs::QueryDiag diag;
    RunExplained(*index, chooser, *g, *query, c.strategy, &diag);
    if (as_json) {
      diag.WriteJson(out);
      out << "\n";
    }
    table.AddRowValues(StrategyName(c.strategy), "yes", c.estimated_cost,
                       diag.index_nodes_visited, diag.extent_elems_scanned,
                       diag.data_nodes_validated, diag.eval_ns / 1000.0,
                       diag.answer_size, c.chosen ? "<-" : "");
  }
  if (!as_json) table.RenderText(out);
  return 0;
}

int CmdDiag(const Options& options, std::ostream& out, std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: mrx diag <graph> [--queries N] [--count N] [--seed N] "
           "[--slow-query-ms X] [--watchdog-ms N] [--flight on|off] "
           "[--out DIR] [--last N]\n";
    return 2;
  }
  const std::string flight_mode = options.Flag("flight", "on");
  if (flight_mode != "on" && flight_mode != "off") {
    err << "unknown --flight value: " << flight_mode
        << " (expected on or off)\n";
    return 2;
  }
  const size_t total_queries = options.Number<size_t>("queries", 400);
  const double slow_ms =
      options.Number<double>("slow-query-ms", 0, kMaxSlowQueryMs);
  const uint64_t watchdog_ms = options.Number<uint64_t>("watchdog-ms", 5000);
  const size_t last_n = options.Number<size_t>("last", 0);
  const std::string out_dir = options.Flag("out", "mrx-diag");
  WorkloadOptions wo;
  wo.num_queries = options.Number<size_t>("count", 40);
  wo.max_query_length = 9;
  wo.seed = options.Number<uint64_t>("seed", 1);
  if (BadNumber(options, err)) return 2;
  Result<DataGraph> g = LoadGraph(options.positional[0]);
  if (!g.ok()) return Fail(err, g.status());

  LabelPathEnumerationOptions eo;
  eo.max_length = 9;
  LabelPathSet paths = EnumerateLabelPaths(*g, eo);
  std::vector<PathExpression> workload = GenerateWorkload(paths, wo);
  if (workload.empty()) {
    err << "error: graph yields an empty workload\n";
    return 1;
  }

  obs::TraceRecorder tracer;
  obs::SlowQueryLog slow_log;
  obs::StallWatchdogOptions wd;
  wd.deadline_ms = watchdog_ms;
  obs::StallWatchdog watchdog(wd);

  // The flight recorder is process-wide: --flight off (the overhead A/B
  // switch) holds for the served phase only, and flight_events counts
  // what this run recorded.
  obs::FlightRecorder& flight = obs::FlightRecorder::Global();
  const bool flight_was_enabled = flight.enabled();
  flight.set_enabled(flight_mode == "on");
  const uint64_t flight_before = flight.total_recorded();

  // The server is declared after (destroyed before) the watchdog and the
  // log its session writes into. One closed-loop client: each Execute
  // passes queue admit, a worker and the session before the next starts.
  server::QueryServerOptions so;
  so.session.strategy = SessionOptions::Strategy::kAuto;
  so.session.tracer = &tracer;
  so.session.slow_query_log = &slow_log;
  so.session.watchdog = &watchdog;
  so.session.slow_query_ns = static_cast<uint64_t>(slow_ms * 1e6);
  server::QueryServer server(*g, so);
  const auto served_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < total_queries; ++i) {
    Result<QueryResult> r = server.Execute(workload[i % workload.size()]);
    if (!r.ok()) return Fail(err, r.status());
  }
  const double served_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - served_start)
                              .count();
  server::ConcurrentSession& session = server.session();
  session.DrainRefinements();
  const uint64_t flight_events = flight.total_recorded() - flight_before;
  flight.set_enabled(flight_was_enabled);

  const std::filesystem::path dir(out_dir);
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Fail(err, Status::Internal("cannot create " + out_dir + ": " +
                                      ec.message()));
  }
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  {
    std::ofstream f(dir / "flight.jsonl", std::ios::trunc);
    flight.WriteJsonl(f, last_n);
    if (!f) return Fail(err, Status::Internal("write failed: flight.jsonl"));
  }
  {
    std::ofstream f(dir / "slow_queries.jsonl", std::ios::trunc);
    slow_log.WriteJsonl(f);
    if (!f) {
      return Fail(err, Status::Internal("write failed: slow_queries.jsonl"));
    }
  }
  {
    std::ofstream f(dir / "trace.jsonl", std::ios::trunc);
    tracer.WriteJsonl(f);
    if (!f) return Fail(err, Status::Internal("write failed: trace.jsonl"));
  }
  {
    std::ofstream f(dir / "metrics.prom", std::ios::trunc);
    obs::WritePrometheusText(snapshot, f);
    if (!f) return Fail(err, Status::Internal("write failed: metrics.prom"));
  }
  {
    std::ofstream f(dir / "metrics.jsonl", std::ios::trunc);
    obs::WriteJsonlSnapshot(snapshot, f);
    if (!f) {
      return Fail(err, Status::Internal("write failed: metrics.jsonl"));
    }
  }
  {
    // One strict-JSON summary object tying the bundle together.
    std::ofstream f(dir / "diag.json", std::ios::trunc);
    f << "{\"queries\":" << session.queries_answered()
      << ",\"cache_hits\":" << session.cache_hits()
      << ",\"slow_queries\":" << session.slow_queries()
      << ",\"last_slow_trace_id\":" << session.last_slow_trace_id()
      << ",\"refinements\":" << session.refinements_applied()
      << ",\"publications\":" << session.index_publications()
      << ",\"index_epoch\":" << session.index_epoch()
      << ",\"qps\":" << (served_s > 0 ? total_queries / served_s : 0.0)
      << ",\"est_cost_units\":" << session.estimated_cost_units()
      << ",\"cost_index_nodes_visited\":"
      << session.cumulative_stats().index_nodes_visited
      << ",\"flight_events\":" << flight_events
      << ",\"flight_threads\":" << flight.num_threads()
      << ",\"watchdog_stalls\":" << watchdog.stalls()
      << ",\"trace_spans\":" << tracer.size()
      << ",\"trace_dropped\":" << tracer.dropped() << "}\n";
    if (!f) return Fail(err, Status::Internal("write failed: diag.json"));
  }
  out << "diag: " << session.queries_answered() << " queries, "
      << session.slow_queries() << " slow, " << flight_events
      << " flight events across " << flight.num_threads() << " threads, "
      << watchdog.stalls() << " stalls\n";
  out << "wrote " << (dir / "flight.jsonl").string() << ", "
      << (dir / "slow_queries.jsonl").string() << ", "
      << (dir / "trace.jsonl").string() << ", "
      << (dir / "metrics.prom").string() << ", "
      << (dir / "metrics.jsonl").string() << ", "
      << (dir / "diag.json").string() << "\n";
  return 0;
}

int CmdGenerate(const Options& options, std::ostream& out,
                std::ostream& err) {
  if (options.positional.size() != 2) {
    err << "usage: mrx generate <xmark|nasa|dtd-random> <out.xml|out.mrxg> "
           "[--scale S] [--nodes N] [--seed N]\n";
    return 2;
  }
  const std::string& dataset = options.positional[0];
  const std::string& out_path = options.positional[1];
  const double scale = options.Number<double>("scale", 0.1, kMaxScale);
  const uint64_t seed = options.Number<uint64_t>("seed", 7);
  const size_t nodes = options.Number<size_t>("nodes", 0);
  if (BadNumber(options, err)) return 2;

  if (EndsWith(out_path, ".mrxg")) {
    // Streamed direct-to-graph path: the serialized document never exists,
    // so multi-million-node graphs generate in graph-sized memory.
    Result<DataGraph> g(Status::InvalidArgument("unknown dataset"));
    if (dataset == "xmark") {
      g = harness::BuildXMarkGraphStreamed(
          nodes > 0 ? harness::XMarkScaleForNodes(nodes) : scale, seed);
    } else if (dataset == "nasa") {
      g = harness::BuildNasaGraphStreamed(
          nodes > 0 ? static_cast<double>(nodes) / 90000.0 : scale, seed);
    } else if (dataset == "dtd-random") {
      g = harness::BuildDtdRandomGraphStreamed(
          nodes > 0 ? nodes : static_cast<size_t>(60000 * scale), seed);
    } else {
      err << "unknown dataset: " << dataset << "\n";
      return 2;
    }
    if (!g.ok()) return Fail(err, g.status());
    Status s = storage::SaveDataGraphToFile(*g, out_path);
    if (!s.ok()) return Fail(err, s);
    out << "wrote " << out_path << " (" << g->num_nodes() << " nodes, "
        << g->num_edges() << " edges)\n";
    return 0;
  }

  std::string doc;
  if (dataset == "xmark") {
    doc = datagen::GenerateXMarkDocument(
        datagen::XMarkOptions::Scaled(scale, seed));
  } else if (dataset == "nasa") {
    Result<std::string> nasa = datagen::GenerateNasaDocument(scale, seed);
    if (!nasa.ok()) return Fail(err, nasa.status());
    doc = *std::move(nasa);
  } else if (dataset == "dtd-random") {
    err << "dtd-random only generates graphs; use a .mrxg output path\n";
    return 2;
  } else {
    err << "unknown dataset: " << dataset << "\n";
    return 2;
  }
  Status s = WriteFile(options.positional[1], doc);
  if (!s.ok()) return Fail(err, s);
  out << "wrote " << options.positional[1] << " (" << doc.size()
      << " bytes)\n";
  return 0;
}

int CmdWorkload(const Options& options, std::ostream& out,
                std::ostream& err) {
  if (options.positional.size() != 1) {
    err << "usage: mrx workload <graph> [--count N] [--max-length L] "
           "[--seed N]\n";
    return 2;
  }
  WorkloadOptions wo;
  wo.num_queries = options.Number<size_t>("count", 20);
  wo.max_query_length = options.Number<size_t>("max-length", 9);
  wo.seed = options.Number<uint64_t>("seed", 1);
  if (BadNumber(options, err)) return 2;
  Result<DataGraph> g = LoadGraph(options.positional[0]);
  if (!g.ok()) return Fail(err, g.status());
  LabelPathEnumerationOptions eo;
  eo.max_length = 9;
  LabelPathSet paths = EnumerateLabelPaths(*g, eo);
  for (const PathExpression& q : GenerateWorkload(paths, wo)) {
    out << q.ToString(g->symbols()) << "\n";
  }
  return 0;
}

int CmdCheck(const Options& options, std::ostream& out, std::ostream& err) {
  const bool fault = options.Flag("fault") == "on" ||
                     options.Flag("fault") == "1" ||
                     options.Flag("fault") == "true";

  const std::string replay_path = options.Flag("replay");
  if (EndsWith(replay_path, ".mrxtrace")) {
    Result<std::string> text = ReadFile(replay_path);
    if (!text.ok()) return Fail(err, text.status());
    Result<check::MutationTrace> trace = check::ParseTrace(*text);
    if (!trace.ok()) return Fail(err, trace.status());
    const check::TraceResult result =
        check::RunMutationTrace(*trace, check::MutationTraceOptions{});
    out << "replay " << replay_path << ": " << result.steps_applied
        << " steps applied, " << result.checks << " oracle checks\n";
    for (const std::string& v : result.violations) out << "  " << v << "\n";
    out << (result.ok() ? "did not reproduce\n" : "REPRODUCED\n");
    return result.ok() ? 0 : 1;
  }
  if (!replay_path.empty()) {
    Result<std::string> text = ReadFile(replay_path);
    if (!text.ok()) return Fail(err, text.status());
    Result<check::ReproCase> repro = check::ParseCase(*text);
    if (!repro.ok()) return Fail(err, repro.status());
    const bool previous = fault::inject_extent_drop.exchange(fault);
    Result<check::ReplayReport> report = check::ReplayCase(*repro);
    fault::inject_extent_drop.store(previous);
    if (!report.ok()) return Fail(err, report.status());
    out << "replay " << replay_path << " [" << repro->index_class << "]"
        << (repro->note.empty() ? "" : " " + repro->note) << "\n"
        << "  expected " << report->expected.size() << " nodes, got "
        << report->actual.size() << "\n";
    if (!report->detail.empty()) out << "  detail: " << report->detail << "\n";
    out << (report->reproduced ? "REPRODUCED\n" : "did not reproduce\n");
    return report->reproduced ? 1 : 0;
  }

  const std::string mode = options.Flag("mode", "diff");
  if (mode == "mutate") {
    check::MutationCheckOptions mo;
    mo.seed = options.Number<uint64_t>("seed", 1);
    mo.num_traces = options.Number<size_t>("cases", 200);
    mo.trace.num_steps = options.Number<size_t>("steps", 6);
    mo.trace.ops_per_batch = options.Number<size_t>("ops", 3);
    mo.trace.gen.num_queries = options.Number<size_t>("queries", 6);
    mo.trace.gen.max_nodes = options.Number<size_t>("max-nodes", 48);
    mo.out_dir = options.Flag("out");
    mo.max_failures = options.Number<size_t>("max-failures", 8);
    mo.log = &out;
    if (BadNumber(options, err)) return 2;
    const check::MutationCheckSummary summary =
        check::RunMutationTraceCheck(mo);
    out << "mutate: " << summary.traces << " traces, "
        << summary.steps_applied << " batches applied, " << summary.checks
        << " oracle checks\n"
        << "mutate: " << summary.violations << " violations, "
        << summary.failures.size() << " recorded failures\n";
    for (const check::MutationCheckFailure& f : summary.failures) {
      out << "  trace " << f.trace_index << " (" << f.shrunk_steps
          << " steps shrunk): " << f.note
          << (f.file.empty() ? "" : " -> " + f.file) << "\n";
    }
    out << (summary.ok() ? "OK\n" : "FAILED\n");
    return summary.ok() ? 0 : 1;
  }
  if (mode == "mutate-stress") {
    check::MutationStressOptions so;
    so.seed = options.Number<uint64_t>("seed", 1);
    so.threads = options.Number<size_t>("threads", 4, kMaxThreads);
    so.rounds = options.Number<size_t>("rounds", 400);
    so.mutation_batches = options.Number<size_t>("batches", 40);
    so.ops_per_batch = options.Number<size_t>("ops", 3);
    so.num_queries = options.Number<size_t>("queries", 16);
    so.max_nodes = options.Number<size_t>("max-nodes", 96);
    so.refine_threads =
        options.Number<size_t>("refine-threads", 1, kMaxThreads);
    if (BadNumber(options, err)) return 2;
    const check::MutationStressReport report = check::RunMutationStress(so);
    out << "mutate-stress: shape=" << report.shape << " queries="
        << report.queries_run << " mutations=" << report.mutations_applied
        << " mismatches=" << report.mismatches << " epoch_regressions="
        << report.epoch_regressions << " final_mismatches="
        << report.final_mismatches << "\n"
        << "mutate-stress: stale_put_drops=" << report.stale_put_drops
        << " held_batches=" << report.held_batches
        << " publications=" << report.publications
        << " trace_spans=" << report.trace_spans << "\n";
    out << (report.ok() ? "OK\n" : "FAILED\n");
    return report.ok() ? 0 : 1;
  }
  if (mode != "diff") {
    err << "unknown check mode: " << mode
        << " (expected diff, mutate, or mutate-stress)\n";
    return 2;
  }

  check::CheckOptions co;
  co.seed = options.Number<uint64_t>("seed", 1);
  co.num_cases = options.Number<size_t>("cases", 100);
  co.gen.num_queries = options.Number<size_t>("queries", 6);
  co.gen.max_nodes = options.Number<size_t>("max-nodes", 48);
  co.out_dir = options.Flag("out");
  co.max_failures = options.Number<size_t>("max-failures", 8);
  co.inject_extent_drop = fault;
  co.log = &out;
  if (BadNumber(options, err)) return 2;
  const check::CheckSummary summary = check::RunCheck(co);
  out << "check: " << summary.cases << " cases, " << summary.queries
      << " queries, " << summary.checks << " oracle checks\n"
      << "check: " << summary.discrepancies << " discrepancies, "
      << summary.violations << " invariant violations, "
      << summary.failures.size() << " recorded failures\n";
  out << (summary.ok() ? "OK\n" : "FAILED\n");
  return summary.ok() ? 0 : 1;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    out << kUsage;
    return args.empty() ? 2 : 0;
  }
  const std::string& command = args[0];

  size_t begin = 1;
  std::string sub;
  if (command == "index") {
    if (args.size() < 2) {
      err << "usage: mrx index <build|info> ...\n";
      return 2;
    }
    sub = args[1];
    begin = 2;
  }
  Result<Options> options = ParseOptions(args, begin);
  if (!options.ok()) return Fail(err, options.status());

  if (command == "stats") return CmdStats(*options, out, err);
  if (command == "convert") return CmdConvert(*options, out, err);
  if (command == "index" && sub == "build") {
    return CmdIndexBuild(*options, out, err);
  }
  if (command == "index" && sub == "info") {
    return CmdIndexInfo(*options, out, err);
  }
  if (command == "query") return CmdQuery(*options, out, err);
  if (command == "explain") return CmdExplain(*options, out, err);
  if (command == "diag") return CmdDiag(*options, out, err);
  if (command == "generate") return CmdGenerate(*options, out, err);
  if (command == "workload") return CmdWorkload(*options, out, err);
  if (command == "check") return CmdCheck(*options, out, err);

  err << "unknown command: " << command << "\n" << kUsage;
  return 2;
}

}  // namespace mrx::tools
