// Tests for server::ConcurrentSession: N threads replaying the same
// workload stream must produce answers byte-identical to a serial
// DataEvaluator pass over the stream (answers are exact regardless of how
// far background refinement has progressed), and the publication protocol
// (drain, epoch bump, cache invalidation, inbox shedding) must behave
// deterministically. The multi-threaded tests avoid sleeps and use
// DrainRefinements() for checkpoints, so they are ThreadSanitizer-friendly.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include "core/mrx.h"
#include "obs/trace.h"
#include "server/concurrent_session.h"
#include "tests/test_util.h"

namespace mrx::server {
namespace {

using mrx::testing::MakeFigure1Graph;
using mrx::testing::MakeFigure3Graph;

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

/// A small stream with repeats, so FUP extraction promotes several paths
/// while the readers are still running.
std::vector<PathExpression> Figure1Workload(const DataGraph& g) {
  std::vector<PathExpression> w;
  for (std::string_view text :
       {"//site/people/person", "//person", "//item",
        "//site/auctions/auction/bidder/person", "//site/people/person",
        "/site/regions/europe/item", "//auction/bidder",
        "//site/people/person", "//site/auctions/auction/bidder/person",
        "//regions//item", "//person", "//auction/bidder"}) {
    w.push_back(Q(g, text));
  }
  return w;
}

TEST(ConcurrentSessionTest, AnswersMatchSerialReplay) {
  DataGraph g = MakeFigure1Graph();
  std::vector<PathExpression> workload = Figure1Workload(g);

  // Serial ground truth: the data-graph evaluation of every query.
  DataEvaluator truth(g);
  std::vector<std::vector<NodeId>> expected;
  expected.reserve(workload.size());
  for (const PathExpression& q : workload) {
    expected.push_back(truth.Evaluate(q));
  }

  for (auto strategy : {SessionOptions::Strategy::kTopDown,
                        SessionOptions::Strategy::kAuto}) {
    ConcurrentSessionOptions options;
    options.refine_after = 2;
    options.strategy = strategy;
    ConcurrentSession session(g, options);

    constexpr size_t kThreads = 4;
    constexpr size_t kRounds = 5;
    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        for (size_t r = 0; r < kRounds; ++r) {
          for (size_t i = 0; i < workload.size(); ++i) {
            QueryResult got = session.Query(workload[i]);
            if (got.answer != expected[i]) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
          }
        }
      });
    }
    for (auto& th : threads) th.join();

    EXPECT_EQ(mismatches.load(), 0u);
    EXPECT_EQ(session.queries_answered(),
              kThreads * kRounds * workload.size());
    session.DrainRefinements();
    // The stream repeats several paths past refine_after, so the
    // background worker must have refined and published at least once.
    EXPECT_GE(session.refinements_applied(), 1u);
    EXPECT_GE(session.index_publications(), 1u);
    EXPECT_EQ(session.observations_pending(), 0u);
  }
}

TEST(ConcurrentSessionTest, DrainMakesPromotedQueriesPrecise) {
  DataGraph g = MakeFigure1Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 2;
  ConcurrentSession session(g, options);
  PathExpression p = Q(g, "//site/people/person");

  session.Query(p);
  session.Query(p);  // Second observation promotes p to a FUP.
  session.DrainRefinements();

  EXPECT_GE(session.refinements_applied(), 1u);
  EXPECT_GE(session.index_epoch(), 1u);
  // Peek answers on the published index without recording an observation.
  QueryResult refined = session.Peek(p);
  EXPECT_TRUE(refined.precise);
  EXPECT_EQ(refined.answer, DataEvaluator(g).Evaluate(p));
}

TEST(ConcurrentSessionTest, CacheServesRepeatsWithinEpoch) {
  DataGraph g = MakeFigure1Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 100;  // No publications in this test.
  ConcurrentSession session(g, options);
  PathExpression p = Q(g, "//site/people/person");

  QueryResult cold = session.Query(p);
  EXPECT_GT(cold.stats.total(), 0u);
  EXPECT_EQ(session.cache_hits(), 0u);

  QueryResult warm = session.Query(p);
  EXPECT_EQ(session.cache_hits(), 1u);
  EXPECT_EQ(warm.answer, cold.answer);
  EXPECT_EQ(warm.stats.total(), 0u);  // Served from the answer cache.
}

TEST(ConcurrentSessionTest, FullInboxShedsObservationsNotAnswers) {
  DataGraph g = MakeFigure3Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 2;
  options.inbox_capacity = 0;  // Every observation is shed immediately.
  ConcurrentSession session(g, options);
  PathExpression p = Q(g, "//r/a/b");
  std::vector<NodeId> expected = DataEvaluator(g).Evaluate(p);

  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(session.Query(p).answer, expected);  // Still exact.
  }
  session.DrainRefinements();  // Nothing submitted, returns immediately.
  EXPECT_EQ(session.observations_pending(), 0u);
  EXPECT_EQ(session.refinements_applied(), 0u);
  EXPECT_EQ(session.index_publications(), 0u);
}

TEST(ConcurrentSessionTest, RefinementChurnsWhileReadersRun) {
  // refine_after = 1 publishes on (nearly) every distinct query, so
  // readers race many epoch bumps; answers must stay exact throughout.
  DataGraph g = MakeFigure1Graph();
  std::vector<PathExpression> workload = Figure1Workload(g);
  std::vector<std::vector<NodeId>> expected;
  DataEvaluator eval(g);
  for (const PathExpression& q : workload) {
    expected.push_back(eval.Evaluate(q));
  }

  ConcurrentSessionOptions options;
  options.refine_after = 1;
  options.cache_capacity = 4;  // Tiny cache: exercise eviction + epochs.
  ConcurrentSession session(g, options);

  constexpr size_t kThreads = 4;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Stagger starting offsets so threads disagree about what is hot.
      for (size_t i = 0; i < 3 * workload.size(); ++i) {
        size_t pos = (t + i) % workload.size();
        if (session.Query(workload[pos]).answer != expected[pos]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  session.DrainRefinements();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(session.index_publications(), 1u);
  EXPECT_EQ(session.index_epoch(), session.index_publications());
}

TEST(ConcurrentSessionTest, MutationEmitsAForcedSpanWhoseStepsAddUp) {
  DataGraph g = MakeFigure1Graph();
  // sample_every huge: only always-sampled traces make it through.
  obs::TraceRecorder tracer({.sample_every = 1000000});
  ConcurrentSessionOptions options;
  options.tracer = &tracer;
  ConcurrentSession session(g, options);
  ASSERT_TRUE(
      session.ApplyMutations({mutate::Mutation::AppendLeaf(g.root(), "x")})
          .ok());
  // A rejected batch publishes nothing and traces nothing.
  ASSERT_FALSE(session.ApplyMutations({mutate::Mutation::Delete(g.root())})
                   .ok());

  const std::vector<obs::SpanEvent> events = tracer.Events();
  const obs::SpanEvent* root = nullptr;
  for (const obs::SpanEvent& e : events) {
    if (e.name != "mutation") continue;
    EXPECT_EQ(root, nullptr) << "one mutation trace per applied batch";
    root = &e;
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->parent_id, 0u);
  std::vector<std::pair<std::string, uint64_t>> expected_attrs = {
      {"graph_version", 1}, {"batch_ops", 1}, {"nodes_added", 1},
      {"nodes_deleted", 0}};
  EXPECT_EQ(root->attrs, expected_attrs);

  std::vector<const obs::SpanEvent*> steps;
  for (const obs::SpanEvent& e : events) {
    if (e.parent_id == root->span_id) steps.push_back(&e);
  }
  ASSERT_EQ(steps.size(), 4u);
  const std::vector<std::string> names = {"apply", "coarse_build", "publish",
                                          "invalidate"};
  uint64_t at = root->start_ns;
  for (size_t i = 0; i < steps.size(); ++i) {
    EXPECT_EQ(steps[i]->name, names[i]);
    EXPECT_EQ(steps[i]->trace_id, root->trace_id);
    EXPECT_EQ(steps[i]->start_ns, at) << names[i];
    at += steps[i]->duration_ns;
  }
  EXPECT_EQ(at, root->start_ns + root->duration_ns);
}

}  // namespace
}  // namespace mrx::server
