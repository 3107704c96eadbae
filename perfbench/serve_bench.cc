// Serving benchmark for the adaptive M*(k) system (see README.md).
//
// One run drives one workload (cold | adapt | mutate) through the public
// API: server::QueryServer with two closed-loop client threads, the
// session's refiner, and, in `mutate`, an open-loop writer. The program
// receives only generated inputs: a fixed dataset and query stream per
// workload, and mutation batches drawn from --seed. Answers are compared
// against DataEvaluator ground truth; mismatches and refused requests are
// the run's failures.
//
//   --trace 0  prints the end-to-end metrics. Nothing is traced: the
//              session has no tracer and this file records no spans.
//   --trace 1  prints the per-layer metrics. They come from timing each
//              layer's public calls from this file, on the same query mix
//              and inputs, and the spans are written to --spans-out.
//
// The last line of standard output is the JSON result; progress goes to
// standard error.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "harness/datasets.h"
#include "index/m_star_index.h"
#include "index/strategy_chooser.h"
#include "mutate/incremental_maintainer.h"
#include "mutate/random_batch.h"
#include "obs/metrics.h"
#include "obs/query_cost.h"
#include "obs/trace.h"
#include "query/data_evaluator.h"
#include "server/answer_cache.h"
#include "server/query_server.h"
#include "util/rng.h"
#include "workload/fup_extractor.h"
#include "workload/generator.h"
#include "workload/label_paths.h"

namespace {

using mrx::DataEvaluator;
using mrx::DataGraph;
using mrx::MStarIndex;
using mrx::MStarQueryStrategy;
using mrx::NodeId;
using mrx::PathExpression;
using mrx::QueryResult;
using mrx::StrategyChooser;
using mrx::obs::MonotonicNowNs;
using mrx::obs::Span;
using mrx::obs::TraceRecorder;
using mrx::server::ConcurrentSession;
using mrx::server::QueryServer;

constexpr size_t kStreamQueries = 500;  // The paper's §5 stream.
constexpr size_t kMaxQueryLength = 9;
constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
// Every kCheckEvery-th stream position is compared against ground truth
// during the run, after its latency sample is taken.
constexpr size_t kCheckEvery = 64;

double NsToUs(double ns) { return ns / 1e3; }
double NsToMs(double ns) { return ns / 1e6; }
double NsToS(double ns) { return ns / 1e9; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Nearest-rank percentile of exact samples (`sorted` ascending).
double Percentile(const std::vector<uint64_t>& sorted, double p) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return static_cast<double>(sorted[rank - 1]);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// --- Workloads --------------------------------------------------------------

struct Spec {
  std::string name;
  bool nasa = false;        ///< NASA-like dataset; XMark otherwise.
  size_t nodes = 0;         ///< Target element-node count.
  bool cache = false;       ///< Session answer cache on.
  bool primed = false;      ///< Converged in set-up (stream replayed twice).
  bool writer = false;      ///< Open-loop writer during the timed reads.
  size_t setups = 1;        ///< Set-ups per run (setup_s is their median).
  bool rounds = false;      ///< Fresh-session rounds read to convergence.
};

constexpr uint64_t kWritePeriodNs = 1500000000;  ///< mutate: 1 batch / 1.5 s.
constexpr size_t kWriteOps = 2;        ///< Ops per mutation batch.

bool SpecFor(const std::string& name, Spec* spec) {
  spec->name = name;
  if (name == "cold") {
    spec->nodes = 500000;
    spec->primed = true;
    spec->setups = 2;
  } else if (name == "adapt") {
    spec->nasa = true;
    spec->nodes = 100000;
    spec->rounds = true;
  } else if (name == "mutate") {
    spec->nodes = 100000;
    spec->cache = true;
    spec->primed = true;
    spec->writer = true;
    spec->setups = 5;
  } else {
    return false;
  }
  return true;
}

// The dataset and the 500-query stream, in the order the generator emits
// it, are fixed per workload, as in the paper's §5 (one generated dataset,
// one generated workload). --seed drives the mutation batches. Drawing the
// dataset, the query set or the arrival order per seed moved the index
// size, the refinement cost and adapt's read tail by more than any bound
// (README.md, "Seeds"): the benchmark would measure its inputs, not the
// code.
constexpr uint64_t kXMarkSeed = 7;     // harness::BuildXMarkGraph's default.
constexpr uint64_t kNasaSeed = 11;     // harness::BuildNasaGraph's default.
constexpr uint64_t kQuerySetSeed = 1;  // `mrx workload`'s default.

// --- Set-up -----------------------------------------------------------------

/// One set-up: generated inputs plus a server brought to the workload's
/// starting state. Members are declared so the server dies before the
/// graph it reads.
struct Instance {
  std::unique_ptr<DataGraph> graph;
  std::vector<PathExpression> stream;
  std::unique_ptr<QueryServer> server;
  double graph_s = 0;    ///< Dataset generation.
  double paths_s = 0;    ///< Label-path enumeration + stream generation.
  double session_s = 0;  ///< QueryServer (and session) construction.
  double prime_s = 0;    ///< Stream replayed twice + DrainRefinements.

  double setup_s() const { return graph_s + paths_s + session_s + prime_s; }

  /// Tears down in dependency order (the server reads the graph), and
  /// hands the freed heap back, so one set-up's garbage does not inflate
  /// the next one's resident set.
  void Reset() {
    server.reset();
    *this = Instance();
    malloc_trim(0);
  }
};

/// Records the window [t0, t1) as a child span of `parent`.
void ChildSpan(Span* parent, const char* name, uint64_t t0, uint64_t t1) {
  if (parent->enabled()) parent->Child(name).EndManual(t0, t1 - t0);
}

/// Records the window [t0, t1) as a child span and a sample (ns) of `out`.
void Timed(Span* parent, const char* name, uint64_t t0, uint64_t t1,
           std::vector<double>* out) {
  out->push_back(static_cast<double>(t1 - t0));
  ChildSpan(parent, name, t0, t1);
}

bool SetUp(const Spec& spec, TraceRecorder* tracer, Instance* out) {
  out->Reset();  // Free the previous set-up before building the next.
  Span root = tracer != nullptr ? tracer->StartTrace("setup", true) : Span();
  Instance inst;
  uint64_t t0 = MonotonicNowNs();
  mrx::Result<DataGraph> g =
      spec.nasa
          ? mrx::harness::BuildNasaGraphStreamed(
                static_cast<double>(spec.nodes) / 90000.0, kNasaSeed)
          : mrx::harness::BuildXMarkGraphStreamed(
                mrx::harness::XMarkScaleForNodes(spec.nodes), kXMarkSeed);
  if (!g.ok()) {
    std::cerr << "graph generation failed: " << g.status().ToString() << "\n";
    return false;
  }
  inst.graph = std::make_unique<DataGraph>(*std::move(g));
  uint64_t t1 = MonotonicNowNs();
  inst.graph_s = NsToS(static_cast<double>(t1 - t0));
  ChildSpan(&root, "datagen.graph", t0, t1);

  t0 = MonotonicNowNs();
  mrx::LabelPathEnumerationOptions eo;
  eo.max_length = kMaxQueryLength;
  const mrx::LabelPathSet paths = mrx::EnumerateLabelPaths(*inst.graph, eo);
  mrx::WorkloadOptions wo;
  wo.num_queries = kStreamQueries;
  wo.max_query_length = kMaxQueryLength;
  wo.seed = kQuerySetSeed;
  inst.stream = mrx::GenerateWorkload(paths, wo);
  t1 = MonotonicNowNs();
  inst.paths_s = NsToS(static_cast<double>(t1 - t0));
  ChildSpan(&root, "workload.paths", t0, t1);
  if (inst.stream.empty()) {
    std::cerr << "empty query stream\n";
    return false;
  }

  t0 = MonotonicNowNs();
  mrx::server::QueryServerOptions so;
  so.num_workers = kWorkers;
  so.session.strategy = mrx::SessionOptions::Strategy::kAuto;
  so.session.cache_results = spec.cache;
  so.session.refine_threads = 1;
  inst.server = std::make_unique<QueryServer>(*inst.graph, so);
  t1 = MonotonicNowNs();
  inst.session_s = NsToS(static_cast<double>(t1 - t0));
  ChildSpan(&root, "server.session", t0, t1);

  if (spec.primed) {
    t0 = MonotonicNowNs();
    ConcurrentSession& session = inst.server->session();
    for (int pass = 0; pass < 2; ++pass) {
      for (const PathExpression& q : inst.stream) session.Query(q);
    }
    session.DrainRefinements();
    t1 = MonotonicNowNs();
    inst.prime_s = NsToS(static_cast<double>(t1 - t0));
    ChildSpan(&root, "server.prime", t0, t1);
  }
  *out = std::move(inst);
  return true;
}

// --- Ground truth -----------------------------------------------------------

/// DataEvaluator answers for each distinct query of the stream.
struct Truth {
  std::vector<size_t> slot_of;     ///< Stream position → distinct slot.
  std::vector<size_t> first_pos;   ///< Distinct slot → first position.
  std::vector<std::vector<NodeId>> answers;

  const std::vector<NodeId>& For(size_t pos) const {
    return answers[slot_of[pos % slot_of.size()]];
  }
};

Truth ComputeTruth(const DataGraph& g,
                   const std::vector<PathExpression>& stream) {
  Truth truth;
  std::unordered_map<std::string, size_t> slots;
  for (size_t i = 0; i < stream.size(); ++i) {
    auto [it, inserted] =
        slots.emplace(stream[i].ToString(g.symbols()), slots.size());
    if (inserted) truth.first_pos.push_back(i);
    truth.slot_of.push_back(it->second);
  }
  DataEvaluator eval(g);
  for (size_t pos : truth.first_pos) {
    truth.answers.push_back(eval.Evaluate(stream[pos]));
  }
  return truth;
}

/// Outcome counts: attempted operations and failures (wrong answers and
/// refused requests).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

// --- Closed-loop reads ------------------------------------------------------

struct ReadOptions {
  /// Stream positions to claim (count-bounded phase), and/or a deadline.
  size_t limit = std::numeric_limits<size_t>::max();
  uint64_t deadline_ns = std::numeric_limits<uint64_t>::max();
  /// Call ConcurrentSession::Query directly instead of QueryServer::Execute.
  bool direct = false;
  const Truth* truth = nullptr;  ///< Sample-check answers when set.
  TraceRecorder* tracer = nullptr;
  /// When set: per position, session.refinements_applied() after the reply
  /// (the publication schedule the adapt replay follows).
  std::vector<uint32_t>* refined_at = nullptr;
};

struct ReadLog {
  std::vector<uint64_t> latency_ns;  ///< Exact per-request samples.
  std::vector<uint64_t> hit_ns;      ///< direct: samples that hit the cache.
  std::vector<uint64_t> miss_ns;     ///< direct: samples that evaluated.
  Tally tally;
  double wall_s = 0;
};

ReadLog RunReads(QueryServer& server,
                 const std::vector<PathExpression>& stream,
                 const ReadOptions& o) {
  std::atomic<size_t> next{0};
  std::vector<ReadLog> logs(kClients);
  ConcurrentSession& session = server.session();
  auto client = [&](ReadLog* log) {
    for (;;) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= o.limit) return;
      const PathExpression& q = stream[i % stream.size()];
      Span root =
          o.tracer != nullptr ? o.tracer->StartTrace("request") : Span();
      root.AddAttr("pos", i);
      const uint64_t t0 = MonotonicNowNs();
      QueryResult result;
      bool ok = true;
      if (o.direct) {
        result = session.Query(q);
      } else {
        mrx::Result<QueryResult> r = server.Execute(q);
        ok = r.ok();
        if (ok) result = *std::move(r);
      }
      const uint64_t t1 = MonotonicNowNs();
      if (root.enabled()) {
        Span call = root.Child(o.direct ? "server.session_query"
                                        : "server.execute");
        call.EndManual(t0, t1 - t0);
      }
      ++log->tally.attempted;
      if (!ok) {
        ++log->tally.failed;
      } else {
        log->latency_ns.push_back(t1 - t0);
        if (o.direct) {
          // A cache hit visits no index node; an evaluation always does.
          (result.stats.index_nodes_visited == 0 ? log->hit_ns
                                                 : log->miss_ns)
              .push_back(t1 - t0);
        }
        if (o.refined_at != nullptr && i < o.refined_at->size()) {
          (*o.refined_at)[i] =
              static_cast<uint32_t>(session.refinements_applied());
        }
        if (o.truth != nullptr && i % kCheckEvery == 0) {
          Span check = root.Child("bench.verify");
          if (result.answer != o.truth->For(i)) ++log->tally.failed;
        }
      }
      if (t1 >= o.deadline_ns) return;
    }
  };
  const uint64_t start = MonotonicNowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) threads.emplace_back(client, &logs[c]);
  for (std::thread& t : threads) t.join();
  ReadLog out;
  out.wall_s = NsToS(static_cast<double>(MonotonicNowNs() - start));
  for (const ReadLog& l : logs) {
    out.latency_ns.insert(out.latency_ns.end(), l.latency_ns.begin(),
                          l.latency_ns.end());
    out.hit_ns.insert(out.hit_ns.end(), l.hit_ns.begin(), l.hit_ns.end());
    out.miss_ns.insert(out.miss_ns.end(), l.miss_ns.begin(), l.miss_ns.end());
    out.tally.Add(l.tally);
  }
  return out;
}

/// Read figures over one or more read phases (adapt: one per round). The
/// run reports the median over phases of each phase's qps and p50, so one
/// phase disturbed by thread timing does not move them, and the lowest
/// phase p99. A phase's tail is set by whatever else the host runs then: a
/// neighbour only ever lengthens it, and in a busy spell it lengthens most
/// phases, so the least disturbed phase is the steadiest estimate of the
/// tail the code itself produces. An adapt round holds 10³ samples, so its
/// p99 rests on 10 of them and the lowest of the rounds' p99s would pick
/// sampling noise; adapt reports their median instead.
struct LatencySummary {
  std::vector<uint64_t> samples;  ///< All phases' samples, unsorted.
  std::vector<double> qps, p50_us, p99_us;

  void Add(const ReadLog& log) {
    samples.insert(samples.end(), log.latency_ns.begin(),
                   log.latency_ns.end());
    std::vector<uint64_t> sorted = log.latency_ns;
    std::sort(sorted.begin(), sorted.end());
    qps.push_back(log.wall_s > 0 ? log.tally.attempted / log.wall_s : 0);
    p50_us.push_back(NsToUs(Percentile(sorted, 50)));
    p99_us.push_back(NsToUs(Percentile(sorted, 99)));
  }
};

double MeanUs(const std::vector<uint64_t>& ns) {
  if (ns.empty()) return 0;
  double sum = 0;
  for (uint64_t x : ns) sum += static_cast<double>(x);
  return NsToUs(sum / static_cast<double>(ns.size()));
}

/// Compares every distinct query's answer through Execute against `truth`.
Tally VerifyAll(QueryServer& server, const std::vector<PathExpression>& stream,
                const Truth& truth) {
  Tally tally;
  for (size_t s = 0; s < truth.first_pos.size(); ++s) {
    ++tally.attempted;
    mrx::Result<QueryResult> r = server.Execute(stream[truth.first_pos[s]]);
    if (!r.ok() || r->answer != truth.answers[s]) ++tally.failed;
  }
  return tally;
}

// --- Writes -----------------------------------------------------------------

struct WriteLog {
  std::vector<double> visible_ms;  ///< Due time → ApplyMutations returned.
  std::vector<double> apply_ms;    ///< Sent → ApplyMutations returned.
  std::vector<double> lag_ms;      ///< Due time → sent.
  uint64_t rejected = 0;
  std::vector<mrx::mutate::MutationBatch> accepted;  ///< In apply order.
};

/// Generates one seeded batch against the current version, sends it, and
/// logs it against the time it was due.
void SendBatch(ConcurrentSession& session, mrx::Rng& rng, uint64_t due_ns,
               TraceRecorder* tracer, WriteLog* log) {
  Span root = tracer != nullptr ? tracer->StartTrace("write", true) : Span();
  mrx::mutate::RandomBatchOptions gen;
  gen.num_ops = kWriteOps;
  std::shared_ptr<const DataGraph> snapshot = session.graph_snapshot();
  mrx::mutate::MutationBatch batch =
      mrx::mutate::GenerateRandomBatch(rng, *snapshot, gen);
  const uint64_t sent = MonotonicNowNs();
  const auto receipt = session.ApplyMutations(batch);
  const uint64_t done = MonotonicNowNs();
  if (root.enabled()) {
    Span apply = root.Child("mutate.apply");
    apply.AddAttr("ok", receipt.ok() ? 1 : 0);
    apply.EndManual(sent, done - sent);
  }
  if (!receipt.ok()) {
    ++log->rejected;  // A generator artifact (random_batch.h), not a failure.
    return;
  }
  log->visible_ms.push_back(NsToMs(static_cast<double>(done - due_ns)));
  log->apply_ms.push_back(NsToMs(static_cast<double>(done - sent)));
  log->lag_ms.push_back(NsToMs(static_cast<double>(sent - due_ns)));
  log->accepted.push_back(std::move(batch));
}

/// Open-loop writer: batch k is due at start + k·period (k ≥ 0), sent then
/// whether or not batch k-1 has finished (a late writer sends at once).
void RunWriter(ConcurrentSession& session, mrx::Rng& rng, uint64_t start_ns,
               uint64_t deadline_ns, TraceRecorder* tracer, WriteLog* log) {
  for (uint64_t due = start_ns; due < deadline_ns; due += kWritePeriodNs) {
    const uint64_t now = MonotonicNowNs();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    }
    SendBatch(session, rng, due, tracer, log);
  }
}

/// cold/adapt: with the readers stopped, sends batches back to back until
/// one is accepted (at most four tries), so every workload reports the
/// write path on its own converged index.
void WriteProbe(ConcurrentSession& session, mrx::Rng& rng,
                TraceRecorder* tracer, WriteLog* log) {
  for (int attempt = 0; attempt < 4 && log->accepted.empty(); ++attempt) {
    SendBatch(session, rng, MonotonicNowNs(), tracer, log);
  }
}

// --- Per-layer replay (traced runs) -----------------------------------------

/// Accumulated per-layer cost of the read-path replay.
struct ReadLayers {
  std::vector<double> key_ns, get_ns, rehydrate_ns, put_ns;
  std::vector<double> choose_ns, probe_ns, validation_ns;
  uint64_t queries = 0;
  uint64_t nodes_visited = 0, elems_scanned = 0, nodes_validated = 0;
  Tally tally;
};

/// The strategy call ConcurrentSession::EvaluateOn makes for `strategy`.
QueryResult RunStrategy(const MStarIndex& index, MStarQueryStrategy strategy,
                        const PathExpression& q, DataEvaluator* validator) {
  switch (strategy) {
    case MStarQueryStrategy::kNaive:
      return index.QueryNaive(q, validator);
    case MStarQueryStrategy::kBottomUp:
      return index.QueryBottomUp(q, validator);
    case MStarQueryStrategy::kHybrid:
      return index.QueryHybrid(q, validator);
    case MStarQueryStrategy::kTopDown:
      break;
  }
  return index.QueryTopDown(q, validator);
}

/// Evaluates `q` as ConcurrentSession does under Strategy::kAuto, with the
/// chooser and the strategy call timed separately. After one warm-up run
/// (a served query is a repeated one) the strategy call runs twice: with
/// the evaluator's validation timing on, and with it off. The second gives
/// the call's true total. The first splits it, but its two clock reads per
/// validated candidate cost about ten times the check itself; the timing
/// window holds about half of that overhead, so half is charged to each
/// side before the split.
QueryResult EvaluateTimed(const MStarIndex& index,
                          const StrategyChooser& chooser,
                          DataEvaluator* validator, const PathExpression& q,
                          Span* parent, ReadLayers* acc) {
  uint64_t t0 = MonotonicNowNs();
  const MStarQueryStrategy strategy = chooser.Choose(q);
  uint64_t t1 = MonotonicNowNs();
  Timed(parent, "index.choose", t0, t1, &acc->choose_ns);

  RunStrategy(index, strategy, q, validator);  // Warm, as a repeated query is.
  validator->ConsumeValidationNs();
  validator->EnableValidationTiming(true);
  t0 = MonotonicNowNs();
  RunStrategy(index, strategy, q, validator);
  t1 = MonotonicNowNs();
  const int64_t in_validator =
      static_cast<int64_t>(validator->ConsumeValidationNs());
  validator->EnableValidationTiming(false);
  const int64_t timed_total = static_cast<int64_t>(t1 - t0);

  QueryResult result;
  mrx::obs::QueryCostCounters cost;
  t0 = MonotonicNowNs();
  {
    mrx::obs::QueryCostScope scope(&cost);
    result = RunStrategy(index, strategy, q, validator);
  }
  t1 = MonotonicNowNs();
  const int64_t total = static_cast<int64_t>(t1 - t0);
  uint64_t probe = static_cast<uint64_t>(total);
  if (cost.validation_checks > 0) {
    const int64_t overhead = std::max<int64_t>(0, timed_total - total);
    probe = static_cast<uint64_t>(std::clamp<int64_t>(
        timed_total - in_validator - overhead / 2, 0, total));
  }
  const uint64_t validation = static_cast<uint64_t>(total) - probe;
  acc->probe_ns.push_back(static_cast<double>(probe));
  acc->validation_ns.push_back(static_cast<double>(validation));
  ++acc->queries;
  acc->nodes_visited += result.stats.index_nodes_visited;
  acc->nodes_validated += result.stats.data_nodes_validated;
  acc->elems_scanned += cost.extent_elems_scanned;
  if (parent->enabled()) {
    Span p = parent->Child("index.probe");
    p.AddAttr("strategy", static_cast<uint64_t>(strategy));
    p.AddAttr("index_nodes_visited", result.stats.index_nodes_visited);
    p.EndManual(t0, probe);
    Span v = parent->Child("query.validation");
    v.AddAttr("data_nodes_validated", result.stats.data_nodes_validated);
    v.EndManual(t0 + probe, validation);
  }
  return result;
}

/// A private stand-in for a published snapshot's index and chooser.
struct Published {
  std::unique_ptr<MStarIndex> index;
  std::unique_ptr<StrategyChooser> chooser;
};

/// Replays `positions` of the stream against a private copy of the
/// published state, timing each call the session makes: key build and Get
/// on a private cache, Materialize on a hit, and on a miss the chooser, the
/// strategy call and Wrap + Put. Two passes, so Get is timed on misses and
/// on hits. The evaluated mix matches the session's: with the cache on it
/// evaluates once per distinct query (as after an invalidation), with the
/// cache off once per position.
void ReplayReads(const Published& state, const DataGraph& g,
                 const std::vector<PathExpression>& stream,
                 const std::vector<size_t>& positions, const Truth& truth,
                 bool cache_on, TraceRecorder* tracer, ReadLayers* acc) {
  DataEvaluator validator(g);
  mrx::server::ShardedAnswerCache cache(4096, 16);
  for (int pass = 0; pass < 2; ++pass) {
    for (size_t pos : positions) {
      const PathExpression& q = stream[pos % stream.size()];
      Span root = tracer->StartTrace("replay", true);
      root.AddAttr("pos", pos);
      uint64_t t0 = MonotonicNowNs();
      const std::string key = q.ToString(g.symbols());
      uint64_t t1 = MonotonicNowNs();
      Timed(&root, "server.cache_key", t0, t1, &acc->key_ns);
      t0 = MonotonicNowNs();
      const mrx::server::CachedAnswerPtr hit = cache.Get(key);
      t1 = MonotonicNowNs();
      Timed(&root, "server.cache_get", t0, t1, &acc->get_ns);
      QueryResult result;
      if (hit != nullptr) {
        t0 = MonotonicNowNs();
        result.answer = hit->answer.Materialize();
        t1 = MonotonicNowNs();
        Timed(&root, "server.cache_rehydrate", t0, t1, &acc->rehydrate_ns);
      }
      if (hit == nullptr || (!cache_on && pass == 0)) {
        result = EvaluateTimed(*state.index, *state.chooser, &validator, q,
                               &root, acc);
      }
      if (hit == nullptr) {
        t0 = MonotonicNowNs();
        cache.Put(key, mrx::server::ShardedAnswerCache::Wrap(result), 0);
        t1 = MonotonicNowNs();
        Timed(&root, "server.cache_put", t0, t1, &acc->put_ns);
      }
      ++acc->tally.attempted;
      if (result.answer != truth.For(pos)) ++acc->tally.failed;
    }
  }
}

/// Write-path layer costs (ns samples): index build work and the mutation
/// path.
struct WriteLayers {
  std::vector<double> refine_ns, clone_ns, chooser_ns;
  uint64_t refine_splits = 0;
  std::vector<double> seed_ns, apply_ns, rebuild_ns;
};

/// Refines `index` for `fups` (if any), then clones it and builds the
/// chooser the way a publication does.
Published RefineAndPublish(MStarIndex* index,
                           const std::vector<PathExpression>& fups,
                           TraceRecorder* tracer, WriteLayers* acc) {
  Span root = tracer->StartTrace("publish", true);
  uint64_t t0 = MonotonicNowNs();
  uint64_t t1 = t0;
  if (!fups.empty()) {
    const uint64_t splits_before = index->TotalRefinementStats().splits;
    index->RefineBatch(fups);
    acc->refine_splits += index->TotalRefinementStats().splits - splits_before;
    t1 = MonotonicNowNs();
    Timed(&root, "index.refine_batch", t0, t1, &acc->refine_ns);
  }
  t0 = MonotonicNowNs();
  auto clone = std::make_unique<MStarIndex>(index->Clone());
  t1 = MonotonicNowNs();
  Timed(&root, "index.clone", t0, t1, &acc->clone_ns);
  t0 = MonotonicNowNs();
  auto chooser = std::make_unique<StrategyChooser>(*clone);
  t1 = MonotonicNowNs();
  Timed(&root, "index.chooser_build", t0, t1, &acc->chooser_ns);
  return Published{std::move(clone), std::move(chooser)};
}

/// FUPs in promotion order for `observations` stream positions replayed
/// in order (a private FupExtractor with the session's threshold).
std::vector<PathExpression> PromotionOrder(
    const std::vector<PathExpression>& stream, size_t observations) {
  mrx::FupExtractor extractor(mrx::FupExtractor::Options{2, 0});
  for (size_t i = 0; i < observations; ++i) {
    extractor.Observe(stream[i % stream.size()]);
  }
  return extractor.fups();
}

/// Replays the accepted batches through a private maintainer, rebuilding
/// and replaying `fups` after each as ApplyMutations does. Returns the
/// last rebuilt graph version (null when no batch was accepted); its
/// published index and chooser land in `last`.
std::shared_ptr<const DataGraph> ReplayWrites(
    const DataGraph& seed,
    const std::vector<mrx::mutate::MutationBatch>& batches,
    const std::vector<PathExpression>& fups, TraceRecorder* tracer,
    WriteLayers* acc, Published* last, Tally* tally) {
  if (batches.empty()) return nullptr;
  Span root = tracer->StartTrace("write_replay", true);
  uint64_t t0 = MonotonicNowNs();
  mrx::mutate::IncrementalMaintainer maintainer(seed);
  uint64_t t1 = MonotonicNowNs();
  Timed(&root, "mutate.maintainer_seed", t0, t1, &acc->seed_ns);
  std::shared_ptr<const DataGraph> graph;
  for (const mrx::mutate::MutationBatch& batch : batches) {
    Span step = tracer->StartTrace("write_step", true);
    t0 = MonotonicNowNs();
    const auto receipt = maintainer.Apply(batch);
    t1 = MonotonicNowNs();
    Timed(&step, "mutate.maintainer_apply", t0, t1, &acc->apply_ns);
    ++tally->attempted;
    if (!receipt.ok()) {  // The session accepted it; so must the replay.
      ++tally->failed;
      continue;
    }
    graph = maintainer.graph_ptr();
    t0 = MonotonicNowNs();
    MStarIndex master(*graph);
    if (!fups.empty()) master.RefineBatch(fups);
    t1 = MonotonicNowNs();
    Timed(&step, "mutate.rebuild_replay", t0, t1, &acc->rebuild_ns);
    *last = RefineAndPublish(&master, {}, tracer, acc);
  }
  return graph;
}

// --- Output -----------------------------------------------------------------

struct Metrics {
  std::vector<std::tuple<std::string, double, std::string>> rows;
  void Add(const std::string& name, double value, const std::string& unit) {
    rows.emplace_back(name, value, unit);
  }
};

void PrintResult(const Tally& tally, const Metrics& m) {
  std::ostringstream os;
  os.precision(10);
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value, unit] : m.rows) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << (std::isfinite(value) ? value : 0.0) << ", \"unit\": \"" << unit
       << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

/// Sums the session's answer-cache counters over all shards.
mrx::server::ShardedAnswerCache::ShardStats CacheTotals(
    const ConcurrentSession& session) {
  mrx::server::ShardedAnswerCache::ShardStats total;
  for (const auto& s : session.cache_shard_stats()) {
    total.hits += s.hits;
    total.misses += s.misses;
    total.evictions += s.evictions;
    total.stale_drops += s.stale_drops;
  }
  return total;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out = "perfbench-spans.jsonl";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

// --- The run ----------------------------------------------------------------

int Run(const Args& args) {
  Spec spec;
  if (!SpecFor(args.workload, &spec)) {
    std::cerr << "unknown workload: " << args.workload << "\n";
    return 2;
  }
  // Traced runs keep their spans in memory and write them out at the end;
  // untraced runs construct no recorder at all. Request traces are sampled
  // 1 in 64 (the recorder's default) so a run's spans fit in the ring; the
  // set-up, replay and write traces are always kept.
  std::unique_ptr<TraceRecorder> tracer;
  if (args.trace) {
    mrx::obs::TraceRecorderOptions to;
    to.max_events = 1 << 18;
    tracer = std::make_unique<TraceRecorder>(to);
  }
  TraceRecorder* tr = tracer.get();
  const uint64_t seconds_ns = static_cast<uint64_t>(args.seconds * 1e9);

  Tally tally;
  Metrics m;
  std::vector<double> setup_s, converge_s, graph_s, paths_s, prime_s;
  LatencySummary untraced, traced, direct;
  std::vector<uint64_t> hit_ns, miss_ns;
  WriteLog writes;
  mrx::Rng batch_rng(args.seed);
  Instance inst;
  Truth truth;
  std::vector<uint32_t> refined_at;  // adapt, traced: publication schedule
  uint64_t cache_lookups = 0, cache_hits = 0, stale_drops = 0, evictions = 0;

  auto note_setup = [&](const Instance& i) {
    setup_s.push_back(i.setup_s());
    graph_s.push_back(i.graph_s);
    paths_s.push_back(i.paths_s);
    prime_s.push_back(i.session_s + i.prime_s);
    std::cerr << spec.name << ": set-up " << i.setup_s() << " s (graph "
              << i.graph->num_nodes() << " nodes, " << i.stream.size()
              << " queries)\n";
  };

  if (spec.rounds) {
    // Each round is a fresh session (I0 = A(0) only). The clients read the
    // stream kAdaptPasses times from its first query: the second pass
    // observes every query again and so promotes every FUP, and both
    // passes are served before the refiner's first publication, by the
    // unrefined index with validation. The refiner then refines, clones
    // and publishes; converge_s runs from the first read until
    // DrainRefinements returns with every FUP published. Reads that
    // overlapped refinement instead would be served by whatever the
    // refiner had published so far, and the refiner's speed would decide
    // their mix. A round's convergence time varies with thread timing, so
    // untraced runs do at least kMinRounds rounds. Traced runs do exactly
    // three: untraced Execute, traced Execute, traced direct session
    // calls; the replay follows the direct round's publication schedule.
    constexpr size_t kAdaptPasses = 2;
    constexpr size_t kMinRounds = 5;
    uint64_t timed_ns = 0;
    for (size_t round = 0;
         args.trace ? round < 3
                    : (round < kMinRounds || timed_ns < seconds_ns);
         ++round) {
      if (!SetUp(spec, tr, &inst)) return 1;
      note_setup(inst);
      // Every round regenerates the same graph and stream.
      if (round == 0) truth = ComputeTruth(*inst.graph, inst.stream);
      ConcurrentSession& session = inst.server->session();
      ReadOptions ro;
      ro.limit = kAdaptPasses * inst.stream.size();
      ro.truth = &truth;
      const bool traced_round = args.trace && round >= 1;
      ro.tracer = traced_round ? tr : nullptr;
      ro.direct = args.trace && round == 2;
      if (ro.direct) {
        refined_at.assign(ro.limit, 0);
        ro.refined_at = &refined_at;
      }
      const uint64_t start = MonotonicNowNs();
      ReadLog log = RunReads(*inst.server, inst.stream, ro);
      const uint64_t publications = session.index_publications();
      session.DrainRefinements();
      const uint64_t drained = MonotonicNowNs();
      converge_s.push_back(NsToS(static_cast<double>(drained - start)));
      timed_ns += drained - start;
      if (ro.direct) {
        hit_ns = log.hit_ns;
        miss_ns = log.miss_ns;
      }
      tally.Add(log.tally);
      LatencySummary& summary =
          ro.direct ? direct : traced_round ? traced : untraced;
      summary.Add(log);
      std::cerr << "adapt round " << round << ": " << log.tally.attempted
                << " reads in " << log.wall_s << " s (" << publications
                << " publications meanwhile), p50 " << summary.p50_us.back()
                << " us, p99 " << summary.p99_us.back() << " us, converged in "
                << converge_s.back() << " s\n";
    }
  } else {
    for (size_t s = 0; s < spec.setups; ++s) {
      if (!SetUp(spec, tr, &inst)) return 1;
      note_setup(inst);
      converge_s.push_back(inst.prime_s);
    }
    truth = ComputeTruth(*inst.graph, inst.stream);
    ConcurrentSession& session = inst.server->session();
    const auto cache_before = CacheTotals(session);
    // Untraced runs read in kPhases equal phases (the read figures are
    // medians over them); traced runs split the window into untraced
    // Execute, traced Execute and traced direct-session phases. With the
    // writer, phases are whole write periods, each opening with a batch
    // due, so every phase sees the same share of write activity.
    constexpr size_t kPhases = 5;
    size_t phases = args.trace ? 3 : kPhases;
    uint64_t phase_ns = seconds_ns / phases;
    if (spec.writer) {
      if (!args.trace) {
        phases = std::max<uint64_t>(1, seconds_ns / kWritePeriodNs);
      }
      phase_ns = std::max<uint64_t>(1, seconds_ns / phases / kWritePeriodNs) *
                 kWritePeriodNs;
    }
    const uint64_t start = MonotonicNowNs();
    std::thread writer;
    if (spec.writer) {
      writer = std::thread([&] {
        RunWriter(session, batch_rng, start, start + phase_ns * phases, tr,
                  &writes);
      });
    }
    for (size_t p = 0; p < phases; ++p) {
      ReadOptions ro;
      ro.deadline_ns = start + phase_ns * (p + 1);
      // Answers served while a batch may be in flight are not compared:
      // Execute does not say which version answered.
      ro.truth = spec.writer ? nullptr : &truth;
      const bool traced_phase = args.trace && p >= 1;
      ro.tracer = traced_phase ? tr : nullptr;
      ro.direct = args.trace && p == 2;
      ReadLog log = RunReads(*inst.server, inst.stream, ro);
      tally.Add(log.tally);
      LatencySummary& summary =
          ro.direct ? direct : traced_phase ? traced : untraced;
      summary.Add(log);
      std::cerr << spec.name << " phase " << p << ": " << log.tally.attempted
                << " reads, p50 " << summary.p50_us.back() << " us, p99 "
                << summary.p99_us.back() << " us\n";
      hit_ns.insert(hit_ns.end(), log.hit_ns.begin(), log.hit_ns.end());
      miss_ns.insert(miss_ns.end(), log.miss_ns.begin(), log.miss_ns.end());
    }
    if (writer.joinable()) writer.join();
    const auto cache_after = CacheTotals(session);
    cache_hits = cache_after.hits - cache_before.hits;
    cache_lookups = cache_hits + cache_after.misses - cache_before.misses;
    stale_drops = cache_after.stale_drops - cache_before.stale_drops;
    evictions = cache_after.evictions - cache_before.evictions;
    if (spec.writer) {
      // Same slots: label ids, and so the printed keys, are stable.
      truth = ComputeTruth(*session.graph_snapshot(), inst.stream);
    }
  }

  QueryServer& server = *inst.server;
  ConcurrentSession& session = server.session();
  session.DrainRefinements();
  const double index_nodes = static_cast<double>(
      mrx::obs::MetricsRegistry::Global()
          .GetGauge("mrx_index_physical_nodes")
          ->Value());
  const double components =
      static_cast<double>(session.published_components());
  tally.Add(VerifyAll(server, inst.stream, truth));
  if (!spec.writer) WriteProbe(session, batch_rng, tr, &writes);
  server.Shutdown();

  // Sample counts and the error ratio go to standard error: the result
  // line carries the ratio as attempted/failed, and counts are no metric.
  std::cerr << spec.name << ": read p50/p99 over " << untraced.samples.size()
            << " samples in " << untraced.qps.size()
            << " phases; write_visible p50 over " << writes.visible_ms.size()
            << " batches (" << writes.rejected << " rejected); "
            << "error_ratio " << tally.failed << "/" << tally.attempted
            << "\n";

  if (!args.trace) {
    m.Add("setup_s", Median(setup_s), "s");
    m.Add("read_qps", Median(untraced.qps), "1/s");
    m.Add("read_p50_us", Median(untraced.p50_us), "us");
    m.Add("read_p99_us",
          spec.rounds ? Median(untraced.p99_us)
                      : *std::min_element(untraced.p99_us.begin(),
                                          untraced.p99_us.end()),
          "us");
    m.Add("converge_s", Median(converge_s), "s");
    m.Add("write_visible_p50_ms", Median(writes.visible_ms), "ms");
    m.Add("index_nodes", index_nodes, "count");
    m.Add("rss_mb", PeakRssMb(), "MB");
    PrintResult(tally, m);
    return 0;
  }

  // --- Traced run: per-layer attribution from this file's own calls. ---
  const DataGraph& seed_graph = *inst.graph;
  ReadLayers reads;
  WriteLayers build;
  Published published;
  std::vector<PathExpression> fups;
  if (spec.rounds) {
    // Follow the direct round's publication schedule: before replaying
    // position i, refine the private index up to the promotions the
    // session had applied when position i was answered.
    fups = PromotionOrder(inst.stream, 2 * inst.stream.size());
    MStarIndex master(seed_graph);
    published = RefineAndPublish(&master, {}, tr, &build);
    size_t applied = 0;
    std::vector<size_t> positions;
    for (size_t i = 0; i < refined_at.size(); ++i) {
      const size_t target = std::min<size_t>(refined_at[i], fups.size());
      if (target > applied) {
        if (!positions.empty()) {
          ReplayReads(published, seed_graph, inst.stream, positions, truth,
                      spec.cache, tr, &reads);
          positions.clear();
        }
        const std::vector<PathExpression> batch(fups.begin() + applied,
                                                fups.begin() + target);
        published = RefineAndPublish(&master, batch, tr, &build);
        applied = target;
      }
      positions.push_back(i);
    }
    ReplayReads(published, seed_graph, inst.stream, positions, truth,
                spec.cache, tr, &reads);
    if (applied < fups.size()) {  // The promotions after the last read.
      const std::vector<PathExpression> rest(fups.begin() + applied,
                                             fups.end());
      RefineAndPublish(&master, rest, tr, &build);
    }
  } else {
    fups = PromotionOrder(inst.stream, 2 * inst.stream.size());
    MStarIndex master(seed_graph);
    published = RefineAndPublish(&master, fups, tr, &build);
  }

  // The write path: the accepted batches again, on a private maintainer.
  Published written;
  std::shared_ptr<const DataGraph> final_graph = ReplayWrites(
      seed_graph, writes.accepted, fups, tr, &build, &written, &tally);

  if (!spec.rounds) {
    // The read mix: every stream position, on the state readers saw last
    // (mutate: the final graph version).
    std::vector<size_t> positions(inst.stream.size());
    for (size_t i = 0; i < positions.size(); ++i) positions[i] = i;
    if (spec.writer && final_graph != nullptr) {
      ReplayReads(written, *final_graph, inst.stream, positions, truth,
                  spec.cache, tr, &reads);
    } else {
      ReplayReads(published, seed_graph, inst.stream, positions, truth,
                  spec.cache, tr, &reads);
    }
  }
  tally.Add(reads.tally);

  const double q = static_cast<double>(std::max<uint64_t>(1, reads.queries));
  const double execute_us = MeanUs(traced.samples);
  const double session_us = MeanUs(direct.samples);
  const double hit_us = MeanUs(hit_ns);
  const double miss_us = MeanUs(miss_ns);
  const double key_ns = Mean(reads.key_ns), get_ns = Mean(reads.get_ns);
  const double rehydrate_ns = Mean(reads.rehydrate_ns);
  const double put_ns = Mean(reads.put_ns), choose_ns = Mean(reads.choose_ns);
  const double probe_us = NsToUs(Mean(reads.probe_ns));
  const double validation_us = NsToUs(Mean(reads.validation_ns));
  // The session builds the key and looks up only with the cache on.
  const double cache_front_us =
      spec.cache ? NsToUs(key_ns + get_ns) : 0;
  const double hit_parts_us = cache_front_us + NsToUs(rehydrate_ns);
  const double miss_parts_us = cache_front_us + NsToUs(choose_ns) + probe_us +
                               validation_us +
                               (spec.cache ? NsToUs(put_ns) : 0);

  m.Add("server.dispatch_us", execute_us - session_us, "us");
  m.Add("server.execute_us", execute_us, "us");
  m.Add("server.session_query_us", session_us, "us");
  m.Add("server.session_query_hit_us", hit_us, "us");
  m.Add("server.session_query_miss_us", miss_us, "us");
  m.Add("server.cache_key_ns", key_ns, "ns");
  m.Add("server.cache_get_ns", get_ns, "ns");
  m.Add("server.cache_rehydrate_ns", rehydrate_ns, "ns");
  m.Add("server.cache_put_ns", put_ns, "ns");
  m.Add("server.cache_hit_ratio",
        cache_lookups > 0 ? static_cast<double>(cache_hits) / cache_lookups
                          : 0,
        "ratio");
  m.Add("server.cache_lookups", static_cast<double>(cache_lookups), "count");
  m.Add("server.cache_stale_drops", static_cast<double>(stale_drops), "count");
  m.Add("server.cache_evictions", static_cast<double>(evictions), "count");
  m.Add("index.choose_ns", choose_ns, "ns");
  m.Add("index.probe_us", probe_us, "us");
  m.Add("index.nodes_visited_per_query", reads.nodes_visited / q, "count");
  m.Add("index.extent_elems_scanned_per_query", reads.elems_scanned / q,
        "count");
  m.Add("query.validation_us", validation_us, "us");
  m.Add("query.nodes_validated_per_query", reads.nodes_validated / q, "count");
  double refine_ns = 0;
  for (double x : build.refine_ns) refine_ns += x;
  m.Add("index.refine_batch_ms", NsToMs(refine_ns), "ms");
  m.Add("index.refine_splits", static_cast<double>(build.refine_splits),
        "count");
  m.Add("index.clone_ms", NsToMs(Mean(build.clone_ns)), "ms");
  m.Add("index.chooser_build_ms", NsToMs(Mean(build.chooser_ns)), "ms");
  m.Add("mutate.maintainer_seed_ms", NsToMs(Mean(build.seed_ns)), "ms");
  m.Add("mutate.maintainer_apply_ms", NsToMs(Mean(build.apply_ns)), "ms");
  m.Add("mutate.rebuild_replay_ms", NsToMs(Mean(build.rebuild_ns)), "ms");
  m.Add("mutate.apply_ms", Mean(writes.apply_ms), "ms");
  m.Add("mutate.batches_applied", static_cast<double>(writes.accepted.size()),
        "count");
  m.Add("mutate.batches_rejected", static_cast<double>(writes.rejected),
        "count");
  m.Add("mutate.writer_lag_ms", Median(writes.lag_ms), "ms");
  m.Add("datagen.graph_s", Median(graph_s), "s");
  m.Add("workload.paths_s", Median(paths_s), "s");
  m.Add("server.prime_s", Median(prime_s), "s");
  m.Add("workload.fups", static_cast<double>(fups.size()), "count");
  m.Add("index.components", components, "count");
  m.Add("index.physical_nodes", index_nodes, "count");
  m.Add("bench.unattributed_share_hit",
        hit_us > 0 ? 1 - hit_parts_us / hit_us : 0, "ratio");
  m.Add("bench.unattributed_share_miss",
        miss_us > 0 ? 1 - miss_parts_us / miss_us : 0, "ratio");
  m.Add("bench.trace_overhead",
        Median(untraced.p50_us) > 0
            ? Median(traced.p50_us) / Median(untraced.p50_us)
            : 0,
        "ratio");

  std::ofstream spans(args.spans_out, std::ios::trunc);
  tr->WriteJsonl(spans);
  if (!spans) {
    std::cerr << "cannot write spans to " << args.spans_out << "\n";
    return 1;
  }
  std::cerr << "wrote " << tr->size() << " spans to " << args.spans_out
            << "\n";
  PrintResult(tally, m);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: serve_bench --workload cold|adapt|mutate --seed N "
                 "--seconds S --trace 0|1 [--spans-out FILE]\n";
    return 2;
  }
  return Run(args);
}
