#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mutate/mutation.h"
#include "obs/query_diag.h"
#include "server/answer_cache.h"
#include "server/concurrent_session.h"
#include "tests/test_util.h"

namespace mrx::server {
namespace {

using mrx::testing::MakeFigure3Graph;

CachedAnswerPtr MakeEntry(std::vector<NodeId> answer) {
  QueryResult r;
  r.answer = std::move(answer);
  return ShardedAnswerCache::Wrap(r);
}

uint64_t TotalStaleDrops(const ShardedAnswerCache& cache) {
  uint64_t total = 0;
  for (const auto& shard : cache.PerShardStats()) {
    total += shard.stale_drops;
  }
  return total;
}

/// The invariant under test: an answer computed under generation G (the
/// concurrent session's graph version) is never served once G+1 has been
/// published. Both halves matter — entries cached before the publish are
/// cleared, and racing inserts tagged with the old generation are rejected
/// instead of repopulating the fresh cache.

TEST(AnswerCacheEpochTest, InvalidateClearsCachedAnswers) {
  ShardedAnswerCache cache(64, 4);
  cache.Put("q1", MakeEntry({1, 2}), /*epoch=*/0);
  CachedAnswerPtr out = cache.Get("q1");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->answer, (std::vector<NodeId>{1, 2}));

  cache.Invalidate(/*new_epoch=*/1);
  EXPECT_EQ(cache.Get("q1"), nullptr);
  EXPECT_EQ(cache.size(), 0u);
  // The handle outlives the invalidation: entries are immutable.
  EXPECT_EQ(out->answer, (std::vector<NodeId>{1, 2}));
}

TEST(AnswerCacheEpochTest, StalePutAfterInvalidateIsDropped) {
  ShardedAnswerCache cache(64, 4);
  // The race: a reader computes under epoch 0, the refiner publishes
  // (epoch 1), then the reader's insert lands.
  cache.Invalidate(/*new_epoch=*/1);
  EXPECT_EQ(TotalStaleDrops(cache), 0u);
  cache.Put("q1", MakeEntry({1}), /*epoch=*/0);
  EXPECT_EQ(cache.Get("q1"), nullptr);
  EXPECT_EQ(TotalStaleDrops(cache), 1u);

  // A current-epoch insert for the same key is admitted.
  cache.Put("q1", MakeEntry({2}), /*epoch=*/1);
  CachedAnswerPtr out = cache.Get("q1");
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->answer, (std::vector<NodeId>{2}));
  EXPECT_EQ(TotalStaleDrops(cache), 1u);
}

/// The publish window: a publication swaps the snapshot first and
/// invalidates the cache second. A reader that already holds the new
/// snapshot (epoch 1) must not be served the entry computed under epoch 0
/// that is still cached until the Invalidate lands.
TEST(AnswerCacheEpochTest, ReaderOnNewerEpochMissesOlderEntry) {
  ShardedAnswerCache cache(64, 1);
  cache.Put("q1", MakeEntry({4}), /*epoch=*/0);
  EXPECT_EQ(cache.Get("q1", /*epoch=*/1), nullptr);
  // Readers still on epoch 0 keep hitting it until the invalidation.
  CachedAnswerPtr old_reader = cache.Get("q1", /*epoch=*/0);
  ASSERT_NE(old_reader, nullptr);
  EXPECT_EQ(old_reader->answer, (std::vector<NodeId>{4}));

  // After the invalidation an epoch-0 reader misses too, and the new
  // epoch's answer is served only to epoch-1 readers.
  cache.Invalidate(/*new_epoch=*/1);
  cache.Put("q1", MakeEntry({4, 10}), /*epoch=*/1);
  EXPECT_EQ(cache.Get("q1", /*epoch=*/0), nullptr);
  CachedAnswerPtr new_reader = cache.Get("q1", /*epoch=*/1);
  ASSERT_NE(new_reader, nullptr);
  EXPECT_EQ(new_reader->answer, (std::vector<NodeId>{4, 10}));
}

TEST(AnswerCacheEpochTest, EveryEpochTransitionRejectsTheOldTag) {
  ShardedAnswerCache cache(64, 1);  // One shard: deterministic stats.
  for (uint64_t epoch = 1; epoch <= 5; ++epoch) {
    cache.Invalidate(epoch);
    cache.Put("k" + std::to_string(epoch), MakeEntry({1}), epoch - 1);
  }
  EXPECT_EQ(TotalStaleDrops(cache), 5u);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(AnswerCacheEpochTest, SessionNeverServesStaleAnswersAcrossPublishes) {
  const DataGraph g = MakeFigure3Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 2;
  ConcurrentSession session(g, options);

  Result<PathExpression> q = PathExpression::Parse("//a/b", g.symbols());
  ASSERT_TRUE(q.ok());
  const std::vector<NodeId> expected = session.Peek(*q).answer;

  // Drive the query hot so it becomes a FUP, forcing refinements and
  // publications (epoch bumps) between repeated cached lookups.
  for (int round = 0; round < 6; ++round) {
    EXPECT_EQ(session.Query(*q).answer, expected) << "round " << round;
    session.DrainRefinements();
  }
  EXPECT_GT(session.index_publications(), 0u);
  // Refinement publishes keep the cache (the graph version never moved),
  // so the next Query may be served from an entry computed on an earlier
  // index; it must still agree.
  EXPECT_EQ(session.Query(*q).answer, expected);
}

/// Refinement changes no answer, so the cache is tagged with the graph
/// version and a refinement publish keeps its entries. A hit across such a
/// publish returns the answer but no target ids, because those ids name
/// nodes of an index that is no longer served; EXPLAIN reports the epoch
/// the entry was computed on. Only a mutation drops the entry.
TEST(AnswerCacheEpochTest, RefinementPublishKeepsCachedAnswers) {
  const DataGraph g = MakeFigure3Graph();
  ConcurrentSessionOptions options;
  options.refine_after = 2;
  ConcurrentSession session(g, options);
  Result<PathExpression> q = PathExpression::Parse("/r/a/b", g.symbols());
  ASSERT_TRUE(q.ok());

  const QueryResult cold = session.Query(*q);  // Miss: cached at epoch 0.
  EXPECT_FALSE(cold.target.empty());
  session.Query(*q);  // Hit; promotes the query in the background.
  EXPECT_EQ(session.cache_hits(), 1u);
  session.DrainRefinements();  // Refined index published.
  ASSERT_GE(session.index_epoch(), 1u);
  EXPECT_EQ(session.cache_entries(), 1u);

  obs::QueryDiag diag;
  const QueryResult hit = session.QueryExplained(*q, &diag);
  EXPECT_EQ(session.cache_hits(), 2u);
  EXPECT_EQ(hit.answer, cold.answer);
  EXPECT_TRUE(hit.target.empty());
  EXPECT_TRUE(diag.cache_hit);
  EXPECT_EQ(diag.answer_epoch, 0u);
  EXPECT_EQ(diag.epoch, session.index_epoch());

  ASSERT_TRUE(
      session.ApplyMutations({mutate::Mutation::AppendLeaf(0, "z")}).ok());
  EXPECT_EQ(session.cache_entries(), 0u);
  EXPECT_EQ(session.Query(*q).answer, cold.answer);  // Miss: recomputed.
  EXPECT_EQ(session.cache_hits(), 2u);
}

TEST(AnswerCacheEpochTest, UnwrapKeepsTargetsOnlyOnTheirOwnIndex) {
  QueryResult r;
  r.answer = {3, 5};
  r.target = {1};
  const CachedAnswerPtr entry = ShardedAnswerCache::Wrap(r, /*index_epoch=*/2);
  EXPECT_EQ(entry->index_epoch, 2u);
  EXPECT_EQ(ShardedAnswerCache::Unwrap(*entry, 2).target,
            (std::vector<IndexNodeId>{1}));
  const QueryResult other = ShardedAnswerCache::Unwrap(*entry, 3);
  EXPECT_EQ(other.answer, (std::vector<NodeId>{3, 5}));
  EXPECT_TRUE(other.target.empty());
}

/// The mutation half of the invariant (satellite of the live-update
/// subsystem): a cached answer must not survive a graph mutation that
/// changed it. Before snapshots carried the epoch through ApplyMutations,
/// the second Query below would happily serve {4} from the cache.
TEST(AnswerCacheEpochTest, MutationInvalidatesCachedAnswers) {
  const DataGraph g = MakeFigure3Graph();
  ConcurrentSession session(g);

  Result<PathExpression> q = PathExpression::Parse("/r/a/b", g.symbols());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(session.Query(*q).answer, (std::vector<NodeId>{4}));
  EXPECT_EQ(session.Query(*q).answer, (std::vector<NodeId>{4}));
  EXPECT_GE(session.cache_hits(), 1u);  // The answer is in the cache.

  const uint64_t epoch_before = session.index_epoch();
  auto receipt =
      session.ApplyMutations({mutate::Mutation::AppendLeaf(1, "b")});
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_GT(receipt->epoch, epoch_before);
  EXPECT_EQ(receipt->version, 1u);

  // The new "b" under the "a" (compact id 10: appends go to the end) must
  // show up — a stale cache hit would still say {4}.
  EXPECT_EQ(session.Query(*q).answer, (std::vector<NodeId>{4, 10}));
  ConcurrentSession::VersionedAnswer versioned = session.QueryVersioned(*q);
  EXPECT_EQ(versioned.result.answer, (std::vector<NodeId>{4, 10}));
  EXPECT_EQ(versioned.graph_version, 1u);
  EXPECT_GE(versioned.epoch, receipt->epoch);
}

}  // namespace
}  // namespace mrx::server
