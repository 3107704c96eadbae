#include <gtest/gtest.h>

#include "core/mrx.h"
#include "tests/test_util.h"

namespace mrx {
namespace {

using mrx::testing::MakeFigure1Graph;
using mrx::testing::MakeFigure3Graph;

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

TEST(FupExtractorTest, PromotesAtThreshold) {
  DataGraph g = MakeFigure3Graph();
  FupExtractor extractor(FupExtractor::Options{3, 0});
  PathExpression p = Q(g, "//r/a/b");
  EXPECT_FALSE(extractor.Observe(p));
  EXPECT_FALSE(extractor.Observe(p));
  EXPECT_TRUE(extractor.Observe(p));   // Third observation promotes.
  EXPECT_FALSE(extractor.Observe(p));  // Promoted only once.
  EXPECT_EQ(extractor.Frequency(p), 4u);
  ASSERT_EQ(extractor.fups().size(), 1u);
  EXPECT_TRUE(extractor.fups()[0] == p);
}

TEST(FupExtractorTest, DistinguishesQueries) {
  DataGraph g = MakeFigure3Graph();
  FupExtractor extractor(FupExtractor::Options{2, 0});
  EXPECT_FALSE(extractor.Observe(Q(g, "//r/a")));
  EXPECT_FALSE(extractor.Observe(Q(g, "//r/c")));
  EXPECT_FALSE(extractor.Observe(Q(g, "/r/a")));  // Anchored is distinct.
  EXPECT_TRUE(extractor.Observe(Q(g, "//r/a")));
  EXPECT_EQ(extractor.num_tracked(), 3u);
}

TEST(FupExtractorTest, IgnoresSingleLabelQueries) {
  DataGraph g = MakeFigure3Graph();
  FupExtractor extractor(FupExtractor::Options{1, 0});
  EXPECT_FALSE(extractor.Observe(Q(g, "//b")));
  EXPECT_FALSE(extractor.Observe(Q(g, "//b")));
  EXPECT_TRUE(extractor.fups().empty());
}

TEST(FupExtractorTest, TrackingCapHolds) {
  DataGraph g = MakeFigure3Graph();
  FupExtractor extractor(FupExtractor::Options{1, 2});
  EXPECT_TRUE(extractor.Observe(Q(g, "//r/a")));
  EXPECT_TRUE(extractor.Observe(Q(g, "//r/c")));
  // Table is full; new queries are not tracked.
  EXPECT_FALSE(extractor.Observe(Q(g, "//r/d")));
  EXPECT_EQ(extractor.num_tracked(), 2u);
  // Already-tracked queries keep counting.
  EXPECT_EQ(extractor.Frequency(Q(g, "//r/a")), 1u);
}

TEST(FupExtractorTest, MinFrequencyOneRefinesImmediately) {
  DataGraph g = MakeFigure3Graph();
  FupExtractor extractor(FupExtractor::Options{1, 0});
  EXPECT_TRUE(extractor.Observe(Q(g, "//r/a/b")));
}

// SessionTest drives the whole Figure 5 loop (server::ConcurrentSession)
// one query at a time, with DrainRefinements() as the point where the
// refiner has caught up. The answer cache is off where a test reads the
// evaluated answer's precision or cost: a refinement publish keeps cached
// answers, precision flag included.

using server::ConcurrentSession;
using server::ConcurrentSessionOptions;

size_t PublishedComponents(const ConcurrentSession& session) {
  return session.index_snapshot()->num_components();
}

TEST(SessionTest, RefinesAfterThresholdAndBecomesPrecise) {
  DataGraph g = MakeFigure3Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 2;
  options.cache_results = false;
  ConcurrentSession session(g, options);
  PathExpression p = Q(g, "//r/a/b");

  QueryResult first = session.Query(p);
  EXPECT_FALSE(first.precise);  // Still the A(0) index.
  EXPECT_EQ(first.answer, (std::vector<NodeId>{4}));
  session.DrainRefinements();
  EXPECT_EQ(PublishedComponents(session), 1u);

  // The second observation promotes p; the refiner refines and publishes.
  EXPECT_EQ(session.Query(p).answer, (std::vector<NodeId>{4}));
  session.DrainRefinements();
  EXPECT_EQ(PublishedComponents(session), 3u);
  QueryResult third = session.Query(p);
  EXPECT_TRUE(third.precise);
  EXPECT_EQ(third.answer, (std::vector<NodeId>{4}));
  EXPECT_EQ(session.queries_answered(), 3u);
  EXPECT_GT(session.cumulative_stats().total(), 0u);
}

TEST(SessionTest, PeekDoesNotObserve) {
  DataGraph g = MakeFigure3Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 1;
  ConcurrentSession session(g, options);
  PathExpression p = Q(g, "//r/a/b");
  session.Peek(p);
  session.Peek(p);
  session.DrainRefinements();
  EXPECT_EQ(PublishedComponents(session), 1u);
  EXPECT_EQ(session.queries_answered(), 0u);
  session.Query(p);
  session.DrainRefinements();
  EXPECT_EQ(PublishedComponents(session), 3u);
}

TEST(SessionTest, StrategiesAllAnswerExactly) {
  DataGraph g = MakeFigure1Graph();
  DataEvaluator eval(g);
  PathExpression p = Q(g, "//site/people/person");
  for (auto strategy :
       {SessionOptions::Strategy::kTopDown, SessionOptions::Strategy::kNaive,
        SessionOptions::Strategy::kBottomUp,
        SessionOptions::Strategy::kHybrid,
        SessionOptions::Strategy::kAuto}) {
    ConcurrentSessionOptions options;
    options.strategy = strategy;
    options.refine_after = 1;
    options.cache_results = false;
    ConcurrentSession session(g, options);
    EXPECT_EQ(session.Query(p).answer, eval.Evaluate(p));  // On A(0).
    session.DrainRefinements();
    EXPECT_EQ(session.Query(p).answer, eval.Evaluate(p));  // Refined.
  }
}

TEST(SessionTest, CacheEvictsOldestAtCapacity) {
  DataGraph g = MakeFigure1Graph();
  ConcurrentSessionOptions options;
  options.cache_capacity = 2;
  options.cache_shards = 1;
  options.refine_after = 100;
  ConcurrentSession session(g, options);
  PathExpression a = Q(g, "//person");
  PathExpression b = Q(g, "//item");
  PathExpression c = Q(g, "//bidder");
  session.Query(a);
  session.Query(b);
  session.Query(c);  // Evicts a.
  session.Query(b);  // Hit.
  EXPECT_EQ(session.cache_hits(), 1u);
  session.Query(a);  // Miss (was evicted).
  EXPECT_EQ(session.cache_hits(), 1u);
}

TEST(SessionTest, CacheHitRefreshesRecencySoEvictionIsLru) {
  DataGraph g = MakeFigure1Graph();
  ConcurrentSessionOptions options;
  options.cache_capacity = 2;
  options.cache_shards = 1;
  options.refine_after = 100;
  ConcurrentSession session(g, options);
  PathExpression a = Q(g, "//person");
  PathExpression b = Q(g, "//item");
  PathExpression c = Q(g, "//bidder");
  session.Query(a);
  session.Query(b);
  session.Query(a);  // Hit; refreshes a's recency, so b is now LRU.
  EXPECT_EQ(session.cache_hits(), 1u);
  session.Query(c);  // Evicts b (a FIFO memo would evict a instead).
  session.Query(a);  // Still cached.
  EXPECT_EQ(session.cache_hits(), 2u);
  session.Query(b);  // Miss: was evicted.
  EXPECT_EQ(session.cache_hits(), 2u);
}

TEST(SessionTest, FullWorkloadDrivesCostDown) {
  DataGraph g = MakeFigure1Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 2;
  options.cache_results = false;
  ConcurrentSession session(g, options);
  PathExpression p = Q(g, "//site/auctions/auction/bidder/person");
  uint64_t cold = session.Query(p).stats.total();
  session.Query(p);  // Promotes p.
  session.DrainRefinements();
  uint64_t warm = session.Query(p).stats.total();
  EXPECT_LT(warm, cold);
}

}  // namespace
}  // namespace mrx
