// Tests for the query-serving layer (src/server/): the bounded MPMC
// request queue and its backpressure contract, the epoch-tagged sharded
// answer cache, and QueryServer's submit/execute/shutdown behavior. Blocking scenarios synchronize on promises/futures rather
// than sleeps, so they are deterministic under ThreadSanitizer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/mrx.h"
#include "obs/metrics.h"
#include "server/answer_cache.h"
#include "server/bounded_queue.h"
#include "server/query_server.h"
#include "tests/test_util.h"

namespace mrx::server {
namespace {

using mrx::testing::MakeFigure1Graph;

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

TEST(BoundedQueueTest, FifoWithTryPushBackpressure) {
  BoundedQueue<int> q(2);
  int a = 1, b = 2, c = 3;
  EXPECT_TRUE(q.TryPush(a));
  EXPECT_TRUE(q.TryPush(b));
  EXPECT_FALSE(q.TryPush(c));  // Full: the backpressure signal.
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_TRUE(q.TryPush(c));  // Space again.
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_EQ(q.Pop().value(), 3);
}

TEST(BoundedQueueTest, CloseDrainsAcceptedItemsThenStops) {
  BoundedQueue<int> q(4);
  int a = 1, b = 2;
  EXPECT_TRUE(q.TryPush(a));
  EXPECT_TRUE(q.TryPush(b));
  q.Close();
  EXPECT_FALSE(q.TryPush(a));   // No intake after close...
  EXPECT_FALSE(q.Push(3));
  EXPECT_EQ(q.Pop().value(), 1);  // ...but accepted work still drains.
  EXPECT_EQ(q.Pop().value(), 2);
  EXPECT_FALSE(q.Pop().has_value());  // Closed and drained.
}

TEST(BoundedQueueTest, MpmcDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 50;
  BoundedQueue<int> q(4);  // Small capacity: producers block and resume.

  std::mutex mu;
  std::vector<int> received;
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.Pop()) {
        std::lock_guard<std::mutex> lock(mu);
        received.push_back(*item);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.Push(p * kPerProducer + i));
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : consumers) t.join();

  ASSERT_EQ(received.size(),
            static_cast<size_t>(kProducers * kPerProducer));
  std::sort(received.begin(), received.end());
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    EXPECT_EQ(received[i], i);  // Each value exactly once.
  }
}

CachedAnswerPtr MakeEntry(std::vector<NodeId> answer) {
  QueryResult r;
  r.answer = std::move(answer);
  r.precise = true;
  return ShardedAnswerCache::Wrap(r);
}

TEST(ShardedAnswerCacheTest, PutGetRoundTripsWithinEpoch) {
  ShardedAnswerCache cache(/*capacity=*/64, /*num_shards=*/4);
  cache.Put("//a/b", MakeEntry({1, 2, 3}), /*epoch=*/0);
  CachedAnswerPtr out = cache.Get("//a/b");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->answer, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(cache.Get("//a/c"), nullptr);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ShardedAnswerCacheTest, StaleEpochPutIsDropped) {
  ShardedAnswerCache cache(64, 4);
  cache.Invalidate(/*new_epoch=*/1);
  // A racing insert computed under the superseded index must not land.
  cache.Put("//a/b", MakeEntry({1}), /*epoch=*/0);
  EXPECT_EQ(cache.Get("//a/b"), nullptr);
  cache.Put("//a/b", MakeEntry({2}), /*epoch=*/1);
  CachedAnswerPtr out = cache.Get("//a/b");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->answer, (std::vector<NodeId>{2}));
}

TEST(ShardedAnswerCacheTest, InvalidateClearsAllShards) {
  ShardedAnswerCache cache(64, 4);
  for (int i = 0; i < 20; ++i) {
    cache.Put("key" + std::to_string(i), MakeEntry({NodeId(i)}), 0);
  }
  EXPECT_GT(cache.size(), 0u);
  cache.Invalidate(1);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(ShardedAnswerCacheTest, ShardCountRoundsUpToPowerOfTwo) {
  ShardedAnswerCache cache(64, 5);
  EXPECT_EQ(cache.num_shards(), 8u);
}

TEST(QueryServerTest, ExecuteAnswersExactly) {
  DataGraph g = MakeFigure1Graph();
  QueryServerOptions options;
  options.num_workers = 2;
  QueryServer server(g, options);
  DataEvaluator eval(g);

  std::vector<PathExpression> queries = {
      Q(g, "//site/people/person"), Q(g, "//item"),
      Q(g, "//site/auctions/auction/bidder/person")};
  for (const PathExpression& q : queries) {
    Result<QueryResult> r = server.Execute(q);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->answer, eval.Evaluate(q));
  }

  EXPECT_EQ(server.session().queries_answered(), queries.size());
  EXPECT_EQ(server.session().graph_version(), 0u);
}

TEST(QueryServerTest, SubmitInvokesCallbackWithAnswer) {
  DataGraph g = MakeFigure1Graph();
  QueryServer server(g, {});
  PathExpression p = Q(g, "//person");

  std::promise<std::vector<NodeId>> answered;
  ASSERT_TRUE(server
                  .Submit(p,
                          [&](QueryResult&& r) {
                            answered.set_value(std::move(r.answer));
                          })
                  .ok());
  EXPECT_EQ(answered.get_future().get(), DataEvaluator(g).Evaluate(p));
}

TEST(QueryServerTest, SubmitRejectsWhenQueueFull) {
  DataGraph g = MakeFigure1Graph();
  QueryServerOptions options;
  options.num_workers = 1;
  options.queue_capacity = 1;
  QueryServer server(g, options);
  PathExpression p = Q(g, "//person");
  obs::Counter* rejected = obs::MetricsRegistry::Global().GetCounter(
      "mrx_server_rejected_total");
  const uint64_t rejected_before = rejected->Value();

  // Block the only worker inside the first request's callback, so the
  // second request parks in the queue and the third finds it full.
  std::promise<void> entered, release;
  std::shared_future<void> gate(release.get_future());
  std::atomic<int> completed{0};
  ASSERT_TRUE(server
                  .Submit(p,
                          [&, gate](const QueryResult&) {
                            entered.set_value();
                            gate.wait();
                            completed.fetch_add(1);
                          })
                  .ok());
  entered.get_future().wait();  // Worker is now parked; queue is empty.

  ASSERT_TRUE(
      server.Submit(p, [&](const QueryResult&) { completed.fetch_add(1); })
          .ok());  // Fills the queue.
  Status overflow =
      server.Submit(p, [&](const QueryResult&) { completed.fetch_add(1); });
  EXPECT_EQ(overflow.code(), StatusCode::kUnavailable);

  release.set_value();
  server.Shutdown();  // Completes the two accepted requests.
  EXPECT_EQ(completed.load(), 2);
  EXPECT_EQ(rejected->Value() - rejected_before, 1u);
}

TEST(QueryServerTest, ShutdownCompletesAcceptedThenRejects) {
  DataGraph g = MakeFigure1Graph();
  QueryServerOptions options;
  options.num_workers = 2;
  QueryServer server(g, options);
  PathExpression p = Q(g, "//site/people/person");

  std::atomic<int> completed{0};
  constexpr int kRequests = 8;
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(
        server.Submit(p, [&](const QueryResult&) { completed.fetch_add(1); })
            .ok());
  }
  server.Shutdown();
  EXPECT_EQ(completed.load(), kRequests);  // Accepted work never dropped.

  EXPECT_EQ(server.Submit(p, [](const QueryResult&) {}).code(),
            StatusCode::kUnavailable);
  EXPECT_FALSE(server.Execute(p).ok());
  server.Shutdown();  // Idempotent.
}

}  // namespace
}  // namespace mrx::server
