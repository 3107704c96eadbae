#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "harness/datasets.h"
#include "index/m_star_index.h"
#include "mutate/mutation.h"
#include "mutate/random_batch.h"
#include "obs/metrics.h"
#include "query/data_evaluator.h"
#include "server/concurrent_session.h"
#include "server/query_server.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "workload/fup_extractor.h"
#include "workload/generator.h"
#include "workload/label_paths.h"

namespace mrx::server {
namespace {

using ::mrx::testing::MakeFigure1Graph;
using ::mrx::testing::MakeFigure3Graph;

PathExpression Q(const DataGraph& g, std::string_view text) {
  return std::move(PathExpression::Parse(text, g.symbols())).value();
}

TEST(ConcurrentMutationTest, ApplyPublishesNewVersion) {
  const DataGraph g = MakeFigure3Graph();
  ConcurrentSession session(g);
  EXPECT_EQ(session.graph_version(), 0u);
  EXPECT_EQ(session.graph_snapshot()->num_nodes(), g.num_nodes());

  auto receipt =
      session.ApplyMutations({mutate::Mutation::AppendLeaf(0, "z")});
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt->version, 1u);
  EXPECT_EQ(receipt->new_nodes.size(), 1u);
  EXPECT_EQ(session.graph_version(), 1u);

  std::shared_ptr<const DataGraph> snapshot = session.graph_snapshot();
  EXPECT_EQ(snapshot->num_nodes(), g.num_nodes() + 1);
  // graph() keeps returning the seed (the pre-mutation contract).
  EXPECT_EQ(session.graph().num_nodes(), g.num_nodes());
}

TEST(ConcurrentMutationTest, RejectedBatchChangesNothing) {
  const DataGraph g = MakeFigure3Graph();
  ConcurrentSession session(g);
  const uint64_t epoch = session.index_epoch();
  // Deleting the root is invalid; the batch must be rejected atomically.
  auto receipt = session.ApplyMutations(
      {mutate::Mutation::AppendLeaf(1, "x"), mutate::Mutation::Delete(0)});
  EXPECT_FALSE(receipt.ok());
  EXPECT_EQ(session.graph_version(), 0u);
  EXPECT_EQ(session.index_epoch(), epoch);
  EXPECT_EQ(session.graph_snapshot()->num_nodes(), g.num_nodes());
}

TEST(ConcurrentMutationTest, EmptyBatchIsANoOp) {
  const DataGraph g = MakeFigure1Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 1;
  ConcurrentSession session(g, options);
  const PathExpression q = Q(g, "//auction/bidder");
  const std::vector<NodeId> answer = session.Query(q).answer;
  session.DrainRefinements();  // q is a FUP: the published index is refined.
  const uint64_t epoch = session.index_epoch();
  const size_t components = session.published_components();
  ASSERT_GT(components, 1u);
  const uint64_t hits = session.cache_hits();

  auto receipt = session.ApplyMutations({});
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_EQ(receipt->version, 0u);
  EXPECT_EQ(receipt->epoch, epoch);
  EXPECT_TRUE(receipt->new_nodes.empty());
  // No coarse publish, no cache wipe, no replay owed.
  EXPECT_EQ(session.graph_version(), 0u);
  EXPECT_EQ(session.index_epoch(), epoch);
  EXPECT_EQ(session.published_components(), components);
  EXPECT_EQ(session.Query(q).answer, answer);
  EXPECT_EQ(session.cache_hits(), hits + 1);
  session.DrainRefinements();
  EXPECT_EQ(session.index_epoch(), epoch);
}

TEST(ConcurrentMutationTest, AnswersTrackTheMutatedGraph) {
  const DataGraph g = MakeFigure1Graph();
  ConcurrentSession session(g);
  const PathExpression q = Q(g, "//auction/bidder");

  Rng rng(20260808);
  mutate::RandomBatchOptions gen;
  gen.num_ops = 3;
  for (int step = 0; step < 12; ++step) {
    std::shared_ptr<const DataGraph> before = session.graph_snapshot();
    auto receipt =
        session.ApplyMutations(mutate::GenerateRandomBatch(rng, *before, gen));
    if (!receipt.ok()) continue;  // Ops may interact; a reject is a no-op.
    std::shared_ptr<const DataGraph> now = session.graph_snapshot();
    DataEvaluator oracle(*now);
    EXPECT_EQ(session.Query(q).answer, oracle.Evaluate(q)) << "step " << step;
  }
  EXPECT_GT(session.graph_version(), 0u);
}

TEST(ConcurrentMutationTest, PromotedFupsSurviveMutations) {
  // The writer keeps only the graph and the FUP list. After FUPs, a random
  // mutation trace and one more FUP promoted on the mutated graph, the
  // served index must be exactly a fresh build over the current graph
  // refined by every FUP in promotion order: same answers, targets and
  // §5 cost on every query of the stream.
  Result<DataGraph> g = harness::BuildXMarkGraph(0.02);
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  LabelPathEnumerationOptions eo;
  eo.max_length = 6;
  WorkloadOptions wo;
  wo.num_queries = 60;
  wo.max_query_length = 6;
  const std::vector<PathExpression> stream =
      GenerateWorkload(EnumerateLabelPaths(*g, eo), wo);

  ConcurrentSessionOptions options;
  options.refine_after = 2;
  ConcurrentSession session(*g, options);
  // A mirror of the session's FUP processor: it sees the same
  // observations, so its fups() is the session's promotion order.
  FupExtractor mirror(FupExtractor::Options{options.refine_after, 0});
  size_t next = 0;
  auto promote = [&](size_t n) {
    const size_t target = mirror.fups().size() + n;
    while (mirror.fups().size() < target && next < stream.size()) {
      const PathExpression& q = stream[next++];
      for (int i = 0; i < 2; ++i) {
        session.Query(q);
        mirror.Observe(q);
      }
      session.DrainRefinements();
    }
  };

  promote(4);
  ASSERT_EQ(mirror.fups().size(), 4u);
  Rng rng(20261019);
  mutate::RandomBatchOptions gen;
  gen.num_ops = 4;
  size_t applied = 0;
  for (int step = 0; step < 8; ++step) {
    std::shared_ptr<const DataGraph> before = session.graph_snapshot();
    if (session.ApplyMutations(mutate::GenerateRandomBatch(rng, *before, gen))
            .ok()) {
      ++applied;
    }
  }
  ASSERT_GT(applied, 0u);
  // Promoted after the last mutation: the refiner must refine the index
  // over the current graph, not one over the seed.
  promote(1);
  ASSERT_EQ(mirror.fups().size(), 5u);
  EXPECT_EQ(session.refinements_applied(), 5u);

  std::shared_ptr<const DataGraph> now = session.graph_snapshot();
  MStarIndex fresh(*now);
  fresh.RefineBatch(mirror.fups());
  EXPECT_EQ(session.published_components(), fresh.num_components());
  DataEvaluator validator(*now);
  DataEvaluator ground_truth(*now);
  for (const PathExpression& q : stream) {
    const std::string text = q.ToString(now->symbols());
    const QueryResult served = session.Peek(q);
    const QueryResult want =
        fresh.Query(MStarQueryStrategy::kTopDown, q, &validator);
    EXPECT_EQ(served.answer, want.answer) << text;
    EXPECT_EQ(served.answer, ground_truth.Evaluate(q)) << text;
    EXPECT_EQ(served.target, want.target) << text;
    EXPECT_EQ(served.stats.index_nodes_visited,
              want.stats.index_nodes_visited)
        << text;
    EXPECT_EQ(served.stats.data_nodes_validated,
              want.stats.data_nodes_validated)
        << text;
  }
}

TEST(ConcurrentMutationTest, PooledWriterRacesReaders) {
  // refine_threads = 2: the refiner's clones and the mutator's fresh
  // builds evaluate their FUP targets on the pool while readers query. Run
  // under TSan in CI; answers stay exact for the version each reader saw.
  const DataGraph g = MakeFigure1Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 1;
  options.refine_threads = 2;
  ConcurrentSession session(g, options);
  const std::vector<PathExpression> queries = {
      Q(g, "//auction/bidder"), Q(g, "//person"),
      Q(g, "//auction/seller/person"), Q(g, "//regions//item"),
      Q(g, "//people/person"), Q(g, "//auction/bidder/person")};
  // Two FUPs before the race, so every post-mutation replay is a batch the
  // pool fans out.
  session.Query(queries[0]);
  session.Query(queries[2]);
  session.DrainRefinements();
  ASSERT_EQ(session.refinements_applied(), 2u);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const PathExpression& q = queries[i++ % queries.size()];
        ConcurrentSession::VersionedAnswer a = session.QueryVersioned(q);
        std::shared_ptr<const DataGraph> snap = session.graph_snapshot();
        if (session.graph_version() == a.graph_version) {
          DataEvaluator oracle(*snap);
          if (oracle.Evaluate(q) != a.result.answer) mismatches.fetch_add(1);
        }
      }
    });
  }

  Rng rng(23);
  mutate::RandomBatchOptions gen;
  gen.num_ops = 2;
  uint64_t applied = 0;
  for (int step = 0; step < 20; ++step) {
    std::shared_ptr<const DataGraph> before = session.graph_snapshot();
    if (session.ApplyMutations(mutate::GenerateRandomBatch(rng, *before, gen))
            .ok()) {
      ++applied;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();
  session.DrainRefinements();

  EXPECT_GT(applied, 5u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(session.graph_version(), applied);
  EXPECT_GT(obs::MetricsRegistry::Global()
                .GetGauge("mrx_refine_pool_jobs_total")
                ->Value(),
            0);
  std::shared_ptr<const DataGraph> now = session.graph_snapshot();
  DataEvaluator ground_truth(*now);
  for (const PathExpression& q : queries) {
    EXPECT_EQ(session.Peek(q).answer, ground_truth.Evaluate(q));
  }
}

/// Arms fault::hold_replay for its scope, so a failing assertion cannot
/// leave the refiner held for the tests that follow.
class ReplayHold {
 public:
  ReplayHold() { fault::hold_replay.Arm(); }
  ~ReplayHold() { Release(); }
  void Release() { fault::hold_replay.Release(); }
};

TEST(ConcurrentMutationTest, CoarseIndexServesTheWindowBeforeTheReplay) {
  // Publish first, refine after: with the refiner held between a
  // mutation's coarse publish and its FUP replay, readers already see the
  // new version, exactly, on the one-component A(0)-based index. Once the
  // refiner is released and drained, the served index is the fresh replay.
  const DataGraph g = MakeFigure1Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 2;
  ConcurrentSession session(g, options);
  const std::vector<PathExpression> queries = {
      Q(g, "//auction/bidder"), Q(g, "//auction/seller/person"),
      Q(g, "//person"), Q(g, "//regions//item"), Q(g, "/site/auction")};
  FupExtractor mirror(FupExtractor::Options{options.refine_after, 0});
  auto query = [&](const PathExpression& q) {
    mirror.Observe(q);
    return session.QueryVersioned(q);
  };
  for (int i = 0; i < 2; ++i) {
    query(queries[0]);
    query(queries[1]);
  }
  session.DrainRefinements();
  ASSERT_EQ(session.refinements_applied(), 2u);
  ASSERT_GT(session.published_components(), 1u);

  ReplayHold hold;
  auto receipt =
      session.ApplyMutations({mutate::Mutation::AppendLeaf(10, "bidder")});
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  std::shared_ptr<const DataGraph> now = session.graph_snapshot();
  DataEvaluator ground_truth(*now);
  for (int round = 0; round < 2; ++round) {  // Misses, then cache hits.
    for (const PathExpression& q : queries) {
      const ConcurrentSession::VersionedAnswer a = query(q);
      EXPECT_EQ(a.graph_version, 1u);
      EXPECT_EQ(a.epoch, receipt->epoch);
      EXPECT_EQ(a.result.answer, ground_truth.Evaluate(q))
          << q.ToString(now->symbols());
    }
  }
  // Held means held: an unheld refiner replays this graph in far less
  // time than this.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(session.published_components(), 1u);
  EXPECT_GT(session.observations_pending(), 0u);
  EXPECT_EQ(session.index_epoch(), receipt->epoch);

  hold.Release();
  session.DrainRefinements();
  EXPECT_GT(session.index_epoch(), receipt->epoch);
  auto expect_fresh_replay = [&] {
    std::shared_ptr<const DataGraph> graph = session.graph_snapshot();
    MStarIndex fresh(*graph);
    fresh.RefineBatch(mirror.fups());
    EXPECT_EQ(session.published_components(), fresh.num_components());
    DataEvaluator validator(*graph);
    for (const PathExpression& q : queries) {
      const QueryResult served = session.Peek(q);
      const QueryResult want =
          fresh.Query(MStarQueryStrategy::kTopDown, q, &validator);
      EXPECT_EQ(served.answer, want.answer);
      EXPECT_EQ(served.target, want.target);
      EXPECT_EQ(served.stats.index_nodes_visited,
                want.stats.index_nodes_visited);
      EXPECT_EQ(served.stats.data_nodes_validated,
                want.stats.data_nodes_validated);
    }
  };
  expect_fresh_replay();

  // With no observation pending, a drain still waits for the owed replay.
  ReplayHold second;
  ASSERT_TRUE(
      session.ApplyMutations({mutate::Mutation::AppendLeaf(11, "bidder")})
          .ok());
  EXPECT_EQ(session.published_components(), 1u);
  EXPECT_EQ(session.observations_pending(), 0u);
  second.Release();
  session.DrainRefinements();
  expect_fresh_replay();
}

TEST(ConcurrentMutationTest, DestroyingTheSessionSkipsAnOwedReplay) {
  const DataGraph g = MakeFigure1Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 2;
  auto session = std::make_unique<ConcurrentSession>(g, options);
  const PathExpression q = Q(g, "//auction/bidder");
  session->Query(q);
  session->Query(q);
  session->DrainRefinements();
  ASSERT_EQ(session->refinements_applied(), 1u);

  ReplayHold hold;
  ASSERT_TRUE(
      session->ApplyMutations({mutate::Mutation::AppendLeaf(0, "z")}).ok());
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const uint64_t publishes =
      registry.Snapshot().FindHistogram("mrx_refine_publish_ns")->count();
  // The refiner is held on the owed replay; destruction must not wait for
  // the hold, and the refiner must return instead of replaying.
  session.reset();
  hold.Release();
  EXPECT_EQ(
      registry.Snapshot().FindHistogram("mrx_refine_publish_ns")->count(),
      publishes);
}

TEST(ConcurrentMutationTest, ReadersStayExactDuringMutations) {
  const DataGraph g = MakeFigure1Graph();
  ConcurrentSession session(g);
  const std::vector<PathExpression> queries = {
      Q(g, "//auction/bidder"), Q(g, "//person"), Q(g, "/site/auction")};

  // Readers check every answer against a ground-truth evaluation on the
  // *snapshot that answered* — pinned by QueryVersioned's version tag —
  // while the main thread applies mutation batches. Snapshots keep old
  // versions alive for in-flight readers, so answers are exact for the
  // version each reader saw, and epochs never run backwards.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> mismatches{0};
  std::atomic<uint64_t> epoch_regressions{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      uint64_t last_epoch = 0;
      size_t i = static_cast<size_t>(t);
      while (!stop.load(std::memory_order_relaxed)) {
        const PathExpression& q = queries[i++ % queries.size()];
        ConcurrentSession::VersionedAnswer a = session.QueryVersioned(q);
        if (a.epoch < last_epoch) epoch_regressions.fetch_add(1);
        last_epoch = a.epoch;
        // Re-acquire: only comparable if the version did not move between
        // the query and the check (it usually does not).
        std::shared_ptr<const DataGraph> snap = session.graph_snapshot();
        if (session.graph_version() == a.graph_version) {
          DataEvaluator oracle(*snap);
          if (oracle.Evaluate(q) != a.result.answer) mismatches.fetch_add(1);
        }
      }
    });
  }

  Rng rng(7);
  mutate::RandomBatchOptions gen;
  gen.num_ops = 2;
  uint64_t applied = 0;
  for (int step = 0; step < 30; ++step) {
    std::shared_ptr<const DataGraph> before = session.graph_snapshot();
    auto receipt =
        session.ApplyMutations(mutate::GenerateRandomBatch(rng, *before, gen));
    if (receipt.ok()) ++applied;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) t.join();

  EXPECT_GT(applied, 10u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(epoch_regressions.load(), 0u);
  EXPECT_EQ(session.graph_version(), applied);
}

TEST(ConcurrentMutationTest, StatsCarryEpochAndVersion) {
  const DataGraph g = MakeFigure3Graph();
  QueryServerOptions options;
  options.num_workers = 2;
  QueryServer server(g, options);
  auto receipt =
      server.session().ApplyMutations({mutate::Mutation::AppendLeaf(0, "y")});
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(server.session().graph_version(), 1u);
  EXPECT_GE(server.session().index_epoch(), 1u);
}

}  // namespace
}  // namespace mrx::server
