// Tests for the query-diagnostics layer (ISSUE 7): the QueryDiag EXPLAIN
// record, the per-thread flight recorder, the bounded slow-query log, the
// stall watchdog, and their integration with ConcurrentSession's
// slow-query capture path.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/mrx.h"
#include "obs/flight_recorder.h"
#include "obs/query_cost.h"
#include "obs/query_diag.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "server/concurrent_session.h"
#include "tests/json_check.h"
#include "tests/test_util.h"

namespace mrx::obs {
namespace {

using mrx::testing::JsonValue;
using mrx::testing::MakeFigure1Graph;
using mrx::testing::ParseJson;

// --- QueryCostScope --------------------------------------------------------

TEST(QueryCostTest, HooksAreNoOpsWithoutAScope) {
  // Must not crash or leak state; there is no active collector.
  CountExtentScan(10);
  CountIntersect(5);
  CountDifference(5);
  CountValidationCheck();
  CountComponentTouched(3);
}

TEST(QueryCostTest, ScopeCollectsAndDecodesLevels) {
  QueryCostCounters c;
  {
    QueryCostScope scope(&c);
    CountExtentScan(10);
    CountIntersect(4);
    CountDifference(2);
    CountValidationCheck();
    CountValidationCheck();
    CountComponentTouched(0);
    CountComponentTouched(2);
    CountComponentTouched(40);  // Clamped into the top bit.
  }
  EXPECT_EQ(c.extent_elems_scanned, 16u);  // 10 + 4 + 2.
  EXPECT_EQ(c.extent_intersect_calls, 1u);
  EXPECT_EQ(c.extent_difference_calls, 1u);
  EXPECT_EQ(c.validation_checks, 2u);
  EXPECT_EQ(c.LevelsTouched(), (std::vector<uint32_t>{0, 2, 31}));
}

TEST(QueryCostTest, ScopesNestWithoutLeakingIntoTheOuter) {
  QueryCostCounters outer, inner;
  QueryCostScope outer_scope(&outer);
  CountExtentScan(1);
  {
    QueryCostScope inner_scope(&inner);
    CountExtentScan(100);
  }
  CountExtentScan(2);
  EXPECT_EQ(inner.extent_elems_scanned, 100u);
  EXPECT_EQ(outer.extent_elems_scanned, 3u);  // Inner counts not added.
}

// --- QueryDiag -------------------------------------------------------------

QueryDiag MakeSampleDiag() {
  QueryDiag d;
  d.query = "//item/name";
  d.trace_id = 42;
  d.epoch = 3;
  d.graph_version = 1;
  d.answer_epoch = 2;
  d.cache_hit = false;
  d.precise = false;
  d.strategy = "topdown";
  d.estimated_cost = 7.5;
  d.considered = {{"naive", 9, true, false},
                  {"topdown", 7.5, true, true},
                  {"bottomup", 12, false, false}};
  QueryCostCounters cost;
  cost.extent_elems_scanned = 130;
  cost.extent_intersect_calls = 2;
  cost.validation_checks = 4;
  cost.levels_touched_mask = 0b101;
  d.SetCost(cost);
  d.index_nodes_visited = 5;
  d.data_nodes_validated = 4;
  d.eval_ns = 1000;
  d.latency_ns = 1500;
  d.answer_size = 6;
  return d;
}

TEST(QueryDiagTest, JsonRenderingIsStrictAndComplete) {
  std::ostringstream os;
  MakeSampleDiag().WriteJson(os);
  auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->Find("query")->string_value, "//item/name");
  EXPECT_EQ(doc->Find("strategy")->string_value, "topdown");
  EXPECT_EQ(doc->Find("trace_id")->number_value, 42);
  EXPECT_EQ(doc->Find("answer_epoch")->number_value, 2);
  EXPECT_DOUBLE_EQ(doc->Find("estimated_cost")->number_value, 7.5);
  const JsonValue* considered = doc->Find("considered");
  ASSERT_NE(considered, nullptr);
  ASSERT_EQ(considered->array.size(), 3u);
  EXPECT_TRUE(considered->array[1].Find("chosen")->bool_value);
  EXPECT_FALSE(considered->array[2].Find("eligible")->bool_value);
  const JsonValue* cost = doc->Find("cost");
  ASSERT_NE(cost, nullptr);
  EXPECT_EQ(cost->Find("extent_elems_scanned")->number_value, 130);
  EXPECT_EQ(cost->Find("index_nodes_visited")->number_value, 5);
  const JsonValue* levels = doc->Find("levels_touched");
  ASSERT_NE(levels, nullptr);
  ASSERT_EQ(levels->array.size(), 2u);
  EXPECT_EQ(levels->array[0].number_value, 0);
  EXPECT_EQ(levels->array[1].number_value, 2);
}

TEST(QueryDiagTest, JsonEscapesQueryText) {
  QueryDiag d;
  d.query = "//a[\"x\\y\"]";
  std::ostringstream os;
  d.WriteJson(os);
  auto doc = ParseJson(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  EXPECT_EQ(doc->Find("query")->string_value, "//a[\"x\\y\"]");
}

TEST(QueryDiagTest, TextRenderingShowsEstimateNextToActuals) {
  std::ostringstream os;
  MakeSampleDiag().WriteText(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("strategy: topdown"), std::string::npos) << text;
  EXPECT_NE(text.find("estimated cost"), std::string::npos);
  EXPECT_NE(text.find("index_nodes_visited=5"), std::string::npos);
  EXPECT_NE(text.find("extent_elems_scanned=130"), std::string::npos);
  EXPECT_NE(text.find("chosen"), std::string::npos);
}

TEST(QueryDiagTest, SetCostCopiesEveryCounter) {
  QueryCostCounters cost;
  cost.extent_elems_scanned = 1;
  cost.extent_intersect_calls = 2;
  cost.extent_difference_calls = 3;
  cost.validation_checks = 4;
  cost.levels_touched_mask = 0b10;
  QueryDiag d;
  d.SetCost(cost);
  EXPECT_EQ(d.extent_elems_scanned, 1u);
  EXPECT_EQ(d.extent_intersect_calls, 2u);
  EXPECT_EQ(d.extent_difference_calls, 3u);
  EXPECT_EQ(d.validation_checks, 4u);
  EXPECT_EQ(d.levels_touched, (std::vector<uint32_t>{1}));
}

// --- FlightRecorder --------------------------------------------------------

TEST(FlightRecorderTest, RecordsAndSnapshotsInTimestampOrder) {
  FlightRecorder recorder({.events_per_thread = 16});
  recorder.Record(FlightEventType::kQueryStart, 1, 2);
  recorder.Record(FlightEventType::kQueryPhase, 3, 4, 7);
  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LE(events[0].ts_ns, events[1].ts_ns);
  EXPECT_EQ(events[0].type,
            static_cast<uint16_t>(FlightEventType::kQueryStart));
  EXPECT_EQ(events[0].a, 1u);
  EXPECT_EQ(events[0].b, 2u);
  EXPECT_EQ(events[1].code, 7u);
  EXPECT_EQ(recorder.total_recorded(), 2u);
  EXPECT_EQ(recorder.num_threads(), 1u);
}

TEST(FlightRecorderTest, RingOverwritesOldestAndKeepsNewest) {
  FlightRecorder recorder({.events_per_thread = 4});
  for (uint64_t i = 1; i <= 10; ++i) {
    recorder.Record(FlightEventType::kQueryStart, i);
  }
  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  // The newest 4 of the 10 survive, in order.
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].a, 7u + i);
  EXPECT_EQ(recorder.total_recorded(), 10u);
}

TEST(FlightRecorderTest, LastNKeepsOnlyTheNewest) {
  FlightRecorder recorder({.events_per_thread = 16});
  for (uint64_t i = 1; i <= 8; ++i) {
    recorder.Record(FlightEventType::kQueryStart, i);
  }
  std::vector<FlightEvent> events = recorder.Snapshot(/*last_n=*/3);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].a, 6u);
  EXPECT_EQ(events[2].a, 8u);
}

TEST(FlightRecorderTest, DisabledRecorderDropsEvents) {
  FlightRecorder recorder({.events_per_thread = 16});
  recorder.set_enabled(false);
  recorder.Record(FlightEventType::kQueryStart, 1);
  EXPECT_EQ(recorder.Snapshot().size(), 0u);
  EXPECT_EQ(recorder.total_recorded(), 0u);
  recorder.set_enabled(true);
  recorder.Record(FlightEventType::kQueryStart, 2);
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

TEST(FlightRecorderTest, EachThreadGetsItsOwnRing) {
  FlightRecorder recorder({.events_per_thread = 16});
  recorder.Record(FlightEventType::kQueryStart, 1);
  std::thread other(
      [&] { recorder.Record(FlightEventType::kMutationApply, 2); });
  other.join();
  EXPECT_EQ(recorder.num_threads(), 2u);
  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 2u);
  std::set<uint32_t> threads;
  for (const FlightEvent& e : events) threads.insert(e.thread);
  EXPECT_EQ(threads.size(), 2u);  // Distinct ordinals.
}

// A client or worker thread per request batch must not cost a ring each:
// a thread that exits hands its ring, events included, to the next one.
TEST(FlightRecorderTest, ExitedThreadsRingGoesToTheNextThread) {
  FlightRecorder recorder({.events_per_thread = 16});
  recorder.Record(FlightEventType::kQueryStart, 0);
  for (uint64_t i = 1; i <= 5; ++i) {
    std::thread client(
        [&] { recorder.Record(FlightEventType::kQueryAdmit, i); });
    client.join();
  }
  EXPECT_EQ(recorder.num_threads(), 2u);
  std::vector<FlightEvent> events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 6u);
  std::set<uint32_t> threads;
  for (const FlightEvent& e : events) threads.insert(e.thread);
  EXPECT_EQ(threads.size(), 6u);  // Each thread keeps its own ordinal.
}

TEST(FlightRecorderTest, TypeNamesAreStable) {
  EXPECT_STREQ(FlightRecorder::TypeName(
                   static_cast<uint16_t>(FlightEventType::kQueryStart)),
               "query_start");
  EXPECT_STREQ(FlightRecorder::TypeName(
                   static_cast<uint16_t>(FlightEventType::kSlowQuery)),
               "slow_query");
  EXPECT_STREQ(FlightRecorder::TypeName(
                   static_cast<uint16_t>(FlightEventType::kWatchdogStall)),
               "watchdog_stall");
  // Unknown values must render, not crash (forward-compat dumps).
  EXPECT_NE(FlightRecorder::TypeName(999), nullptr);
}

TEST(FlightRecorderTest, DumpRawToWritesHeaderAndEventBytes) {
  FlightRecorder recorder({.events_per_thread = 8});
  recorder.Record(FlightEventType::kQueryStart, 11, 22);
  std::string path =
      (std::filesystem::temp_directory_path() / "mrx_flight_dump.bin")
          .string();
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  ASSERT_GE(fd, 0);
  recorder.DumpRawTo(fd, /*signal_number=*/6);
  ::close(fd);
  std::ifstream in(path, std::ios::binary);
  std::string blob((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Text header carries the magic and signal, then raw 32-byte events.
  EXPECT_NE(blob.find("MRXFLIGHT1 sig=6"), std::string::npos);
  EXPECT_GE(blob.size(), sizeof(FlightEvent));
  std::remove(path.c_str());
}

// --- StallWatchdog ---------------------------------------------------------

TEST(StallWatchdogTest, ScopedActivityToleratesNull) {
  StallWatchdog::ScopedActivity scope(nullptr, 123);  // Must not crash.
}

TEST(StallWatchdogTest, FastActivityNeverStalls) {
  StallWatchdogOptions options;
  options.deadline_ms = 200;
  options.poll_interval_ms = 5;
  options.on_stall = [](const std::string&) {};
  StallWatchdog watchdog(options);
  StallWatchdog::Activity* activity = watchdog.RegisterActivity("fast");
  for (int i = 0; i < 10; ++i) {
    StallWatchdog::ScopedActivity scope(activity, MonotonicNowNs());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(watchdog.stalls(), 0u);
}

TEST(StallWatchdogTest, OverdueActivityFiresOnStallOnce) {
  std::atomic<int> fired{0};
  std::string description;
  std::mutex mu;
  StallWatchdogOptions options;
  options.deadline_ms = 10;
  options.poll_interval_ms = 2;
  options.on_stall = [&](const std::string& what) {
    std::lock_guard<std::mutex> lock(mu);
    ++fired;
    description = what;
  };
  StallWatchdog watchdog(options);
  StallWatchdog::Activity* activity = watchdog.RegisterActivity("refine");
  activity->Begin(MonotonicNowNs());
  // Busy past the deadline: the watchdog must flag it exactly once for
  // this Begin (not once per poll).
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  activity->End();
  EXPECT_EQ(watchdog.stalls(), 1u);
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_NE(description.find("refine"), std::string::npos) << description;
}

TEST(StallWatchdogTest, AgeProbeStallsWhileOverDeadline) {
  std::atomic<int> fired{0};
  StallWatchdogOptions options;
  options.deadline_ms = 5;
  options.poll_interval_ms = 2;
  options.on_stall = [&](const std::string&) { ++fired; };
  StallWatchdog watchdog(options);
  std::atomic<uint64_t> age_ns{0};
  uint64_t id = watchdog.RegisterProbe("queue", [&]() -> uint64_t {
    return age_ns.load(std::memory_order_relaxed);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(watchdog.stalls(), 0u);  // Age zero: healthy.
  age_ns.store(1'000'000'000);       // 1 s >> 5 ms deadline.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_GE(watchdog.stalls(), 1u);
  watchdog.UnregisterProbe(id);
  const uint64_t after_unregister = watchdog.stalls();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(watchdog.stalls(), after_unregister);
}

// --- SlowQueryLog ----------------------------------------------------------

QueryDiag DiagNamed(const std::string& query, uint64_t trace_id = 0) {
  QueryDiag d;
  d.query = query;
  d.trace_id = trace_id;
  d.strategy = "naive";
  return d;
}

TEST(SlowQueryLogTest, BoundDropsOldestAndKeepsNewest) {
  SlowQueryLog log({.max_records = 3});
  for (int i = 0; i < 5; ++i) log.Append(DiagNamed("//q" + std::to_string(i)));
  EXPECT_EQ(log.size(), 3u);
  EXPECT_EQ(log.total(), 5u);
  EXPECT_EQ(log.dropped(), 2u);
  std::ostringstream os;
  log.WriteJsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  std::vector<std::string> queries;
  while (std::getline(lines, line)) {
    auto doc = ParseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    queries.push_back(doc->Find("query")->string_value);
  }
  EXPECT_EQ(queries, (std::vector<std::string>{"//q2", "//q3", "//q4"}));
}

TEST(SlowQueryLogTest, TracksLastTraceIdAndGlobalCounter) {
  const uint64_t before =
      MetricsRegistry::Global().GetCounter("mrx_slow_queries_total")->Value();
  SlowQueryLog log;
  log.Append(DiagNamed("//a", 7));
  log.Append(DiagNamed("//b", 0));  // Untraced: exemplar keeps 7.
  log.Append(DiagNamed("//c", 9));
  EXPECT_EQ(log.last_trace_id(), 9u);
  EXPECT_EQ(
      MetricsRegistry::Global().GetCounter("mrx_slow_queries_total")->Value(),
      before + 3);
}

// --- ConcurrentSession integration -----------------------------------------

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

TEST(SessionDiagTest, QueryExplainedFillsTheRecord) {
  DataGraph g = MakeFigure1Graph();
  server::ConcurrentSessionOptions options;
  options.cache_results = false;  // Force evaluation, not a cache echo.
  server::ConcurrentSession session(g, options);
  QueryDiag diag;
  QueryResult result = session.QueryExplained(Q(g, "//person"), &diag);
  EXPECT_FALSE(result.answer.empty());
  EXPECT_EQ(diag.query, "//person");
  EXPECT_FALSE(diag.cache_hit);
  EXPECT_FALSE(diag.strategy.empty());
  EXPECT_EQ(diag.answer_size, result.answer.size());
  EXPECT_GT(diag.latency_ns, 0u);
  ASSERT_EQ(diag.considered.size(), 4u);
  int chosen = 0;
  for (const QueryDiag::Candidate& c : diag.considered) {
    if (c.chosen) {
      ++chosen;
      EXPECT_EQ(c.strategy, diag.strategy);
    }
  }
  EXPECT_EQ(chosen, 1);
  // The evaluation must have touched the index and scanned extents.
  EXPECT_GT(diag.index_nodes_visited + diag.extent_elems_scanned, 0u);
  EXPECT_FALSE(diag.levels_touched.empty());
}

TEST(SessionDiagTest, ZeroThresholdNeverCaptures) {
  DataGraph g = MakeFigure1Graph();
  SlowQueryLog log;
  server::ConcurrentSessionOptions options;
  options.slow_query_ns = 0;  // Capture disabled.
  options.slow_query_log = &log;
  server::ConcurrentSession session(g, options);
  session.Query(Q(g, "//person"));
  EXPECT_EQ(session.slow_queries(), 0u);
  EXPECT_EQ(log.size(), 0u);
}

TEST(SessionDiagTest, TinyThresholdCapturesWithResolvableTraceId) {
  DataGraph g = MakeFigure1Graph();
  TraceRecorder tracer({.sample_every = 1000});  // Sampler nearly off: the
                                                 // forced slow-query traces
                                                 // must record regardless.
  SlowQueryLog log;
  server::ConcurrentSessionOptions options;
  options.slow_query_ns = 1;  // Every query is "slow".
  options.slow_query_log = &log;
  options.tracer = &tracer;
  server::ConcurrentSession session(g, options);
  session.Query(Q(g, "//person"));
  session.Query(Q(g, "//item"));
  EXPECT_EQ(session.slow_queries(), 2u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_NE(session.last_slow_trace_id(), 0u);
  EXPECT_EQ(log.last_trace_id(), session.last_slow_trace_id());

  // Every captured record's trace id must resolve to a span in the
  // recorder — the acceptance criterion's join.
  std::set<uint64_t> trace_ids;
  for (const SpanEvent& e : tracer.Events()) trace_ids.insert(e.trace_id);
  std::ostringstream os;
  log.WriteJsonl(os);
  std::istringstream lines(os.str());
  std::string line;
  int records = 0;
  while (std::getline(lines, line)) {
    auto doc = ParseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const uint64_t id =
        static_cast<uint64_t>(doc->Find("trace_id")->number_value);
    EXPECT_NE(id, 0u);
    EXPECT_TRUE(trace_ids.count(id)) << "unresolved trace id " << id;
    ++records;
  }
  EXPECT_EQ(records, 2);
}

TEST(SessionDiagTest, WatchdogMonitorsRefinerWithoutFalseStalls) {
  DataGraph g = MakeFigure1Graph();
  StallWatchdogOptions wd_options;
  wd_options.deadline_ms = 5000;  // Generous: nothing should stall.
  wd_options.poll_interval_ms = 5;
  wd_options.on_stall = [](const std::string&) {};
  StallWatchdog watchdog(wd_options);
  {
    server::ConcurrentSessionOptions options;
    options.refine_after = 1;
    options.watchdog = &watchdog;
    server::ConcurrentSession session(g, options);
    for (int i = 0; i < 4; ++i) session.Query(Q(g, "//person"));
    session.DrainRefinements();
  }  // Session (and its activities' use) ends before the watchdog.
  EXPECT_EQ(watchdog.stalls(), 0u);
}

}  // namespace
}  // namespace mrx::obs
