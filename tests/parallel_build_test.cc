// Pins the parallel-construction determinism contract
// (docs/PERFORMANCE.md): every pooled path — sharded bisimulation rounds,
// BuildStaticHierarchy, RefineBatch, the pooled session refiner — must
// produce byte-identical partitions and class ids for ANY thread count,
// including the pool-less serial path. The src/check/ oracle and .mrxcase
// replays rely on stable ids, so any divergence here is a release blocker.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "harness/datasets.h"
#include "index/bisimulation.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "server/concurrent_session.h"
#include "tests/test_util.h"
#include "util/thread_pool.h"

namespace mrx {
namespace {

using mrx::testing::MakeGraph;
using mrx::testing::RandomGraph;

/// A small tree (no sharing, no cycles).
DataGraph TreeGraph() {
  return MakeGraph({"r", "a", "a", "b", "b", "c", "c", "c"},
                   {{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}, {3, 6}, {4, 7}});
}

/// A diamond DAG: two paths reconverge, giving multi-parent nodes.
DataGraph DiamondGraph() {
  return MakeGraph({"r", "a", "b", "c", "d", "c"},
                   {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {1, 5}, {4, 5}});
}

/// A graph with a reference-edge cycle (the IDREF shape of the XML model).
DataGraph ReferenceCycleGraph() {
  DataGraphBuilder b;
  for (const char* l : {"r", "a", "b", "c", "b"}) b.AddNode(l);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 4);
  b.AddEdge(2, 3);
  b.AddEdge(3, 1, EdgeKind::kReference);  // Cycle a -> b -> c -> a.
  b.AddEdge(4, 3, EdgeKind::kReference);
  b.SetRoot(0);
  return std::move(std::move(b).Build()).value();
}

/// Canonical rendering of an M*(k)-index: per component, every alive node
/// id with its k, extent and supernode link. Byte-equality of two
/// fingerprints means identical class ids everywhere.
std::string Fingerprint(const MStarIndex& index) {
  std::string out;
  for (size_t i = 0; i < index.num_components(); ++i) {
    const IndexGraph& comp = index.component(i);
    out += "C" + std::to_string(i) + ":";
    for (IndexNodeId v = 0; v < comp.capacity(); ++v) {
      if (!comp.alive(v)) continue;
      out += " " + std::to_string(v) + "k" + std::to_string(comp.node(v).k);
      if (i > 0) out += "^" + std::to_string(index.supernode(i, v));
      out += "[";
      for (NodeId o : comp.node(v).extent) out += std::to_string(o) + ",";
      out += "]";
    }
    out += "\n";
  }
  return out;
}

class ParallelBisimulationTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ParallelBisimulationTest, BlockIdsAreByteIdenticalToSerial) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  const DataGraph graphs[] = {TreeGraph(), DiamondGraph(),
                              ReferenceCycleGraph(),
                              RandomGraph(3, 4096, 6, 2048)};
  for (const DataGraph& g : graphs) {
    for (int k = 0; k <= 4; ++k) {
      BisimulationPartition serial = ComputeKBisimulation(g, k);
      BisimulationPartition pooled =
          ComputeKBisimulation(g, k, RefineOptions{&pool});
      ASSERT_EQ(pooled.num_blocks, serial.num_blocks)
          << "nodes=" << g.num_nodes() << " k=" << k;
      ASSERT_EQ(pooled.block_of, serial.block_of)
          << "nodes=" << g.num_nodes() << " k=" << k;
      ASSERT_EQ(pooled.rounds, serial.rounds);
      ASSERT_EQ(pooled.reached_fixpoint, serial.reached_fixpoint);
    }
  }
}

TEST_P(ParallelBisimulationTest, DkConstructPartitionMatchesSerial) {
  const size_t threads = GetParam();
  ThreadPool pool(threads);
  // The frozen-node path only triggers with mixed requirements; the big
  // graph also crosses the sharding threshold.
  DataGraph g = RandomGraph(17, 3000, 5, 1200);
  std::vector<int32_t> kreq(g.symbols().size());
  for (size_t l = 0; l < kreq.size(); ++l) {
    kreq[l] = static_cast<int32_t>(l % 4);
  }
  BisimulationPartition serial = ComputeDkConstructPartition(g, kreq);
  BisimulationPartition pooled =
      ComputeDkConstructPartition(g, kreq, RefineOptions{&pool});
  EXPECT_EQ(pooled.block_of, serial.block_of);
  EXPECT_EQ(pooled.num_blocks, serial.num_blocks);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelBisimulationTest,
                         ::testing::Values(1, 2, 8));

TEST(ParallelBuildTest, RefineRoundAdvancesLikeFromScratch) {
  DataGraph g = RandomGraph(9, 500, 5, 250);
  BisimulationPartition part = ComputeKBisimulation(g, 0);
  for (int k = 1; k <= 6; ++k) {
    const bool advanced = RefineBisimulationRound(g, &part);
    BisimulationPartition scratch = ComputeKBisimulation(g, k);
    ASSERT_EQ(part.block_of, scratch.block_of) << "k=" << k;
    ASSERT_EQ(part.num_blocks, scratch.num_blocks) << "k=" << k;
    if (!advanced) {
      EXPECT_TRUE(part.reached_fixpoint);
      // Once at the fixpoint, further rounds stay no-ops.
      EXPECT_FALSE(RefineBisimulationRound(g, &part));
      break;
    }
  }
}

TEST(ParallelBuildTest, StaticHierarchyIdenticalAcrossThreadCounts) {
  const DataGraph g = RandomGraph(5, 2500, 6, 1000);
  const std::string serial = Fingerprint(MStarIndex::BuildStaticHierarchy(g, 3));
  for (size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(Fingerprint(
                  MStarIndex::BuildStaticHierarchy(g, 3, RefineOptions{&pool})),
              serial)
        << "threads=" << threads;
  }
}

TEST(ParallelBuildTest, StaticHierarchyLevelsAreTheAkPartitions) {
  // The incremental one-round-per-level build must reproduce exactly the
  // per-level A(i) partitions (same grouping at every i).
  const DataGraph g = RandomGraph(13, 200, 4, 100);
  MStarIndex index = MStarIndex::BuildStaticHierarchy(g, 4);
  ASSERT_EQ(index.num_components(), 5u);
  for (int i = 0; i <= 4; ++i) {
    const BisimulationPartition part = ComputeKBisimulation(g, i);
    const IndexGraph& comp = index.component(static_cast<size_t>(i));
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v = u + 1; v < g.num_nodes(); ++v) {
        ASSERT_EQ(comp.index_of(u) == comp.index_of(v),
                  part.block_of[u] == part.block_of[v])
            << "i=" << i << " u=" << u << " v=" << v;
      }
    }
  }
}

TEST(ParallelBuildTest, DeterminismHoldsAtStreamedScale) {
  // The small-graph tests above cross the sharding threshold barely; this
  // one pins the contract where the scale tier actually runs it — a
  // streamed >= 100k-node reference-rich graph, with the per-level
  // partitions and the full hierarchy fingerprint byte-identical across
  // pool sizes (including the single-shard fast path at 1 thread).
  auto streamed = harness::BuildDtdRandomGraphStreamed(100000);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  const DataGraph& g = *streamed;
  ASSERT_GE(g.num_nodes(), 100000u);

  constexpr int kMax = 4;
  RefineScratch serial_scratch;
  BisimulationPartition serial =
      ComputeKBisimulation(g, 0, RefineOptions{nullptr, &serial_scratch});
  std::vector<std::vector<uint32_t>> serial_levels = {serial.block_of};
  for (int k = 1; k <= kMax; ++k) {
    RefineBisimulationRound(g, &serial,
                            RefineOptions{nullptr, &serial_scratch});
    serial_levels.push_back(serial.block_of);
  }

  for (size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    RefineScratch scratch;
    BisimulationPartition pooled =
        ComputeKBisimulation(g, 0, RefineOptions{&pool, &scratch});
    ASSERT_EQ(pooled.block_of, serial_levels[0]);
    for (int k = 1; k <= kMax; ++k) {
      RefineBisimulationRound(g, &pooled, RefineOptions{&pool, &scratch});
      ASSERT_EQ(pooled.block_of, serial_levels[static_cast<size_t>(k)])
          << "k=" << k;
    }
  }

  const std::string serial_fp =
      Fingerprint(MStarIndex::BuildStaticHierarchy(g, kMax));
  for (size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool pool(threads);
    EXPECT_EQ(Fingerprint(MStarIndex::BuildStaticHierarchy(
                  g, kMax, RefineOptions{&pool})),
              serial_fp);
  }
}

/// Label-path expressions actually present in `g` (one per distinct
/// parent/child label pair, extended to length 2 where possible).
std::vector<PathExpression> SamplePaths(const DataGraph& g, size_t limit) {
  std::vector<PathExpression> out;
  std::vector<std::string> seen;
  for (NodeId u = 0; u < g.num_nodes() && out.size() < limit; ++u) {
    for (NodeId v : g.children(u)) {
      std::string text = std::string(g.label_name(u)) + "/" +
                         std::string(g.label_name(v));
      for (NodeId w : g.children(v)) {
        text += "/" + std::string(g.label_name(w));
        break;
      }
      if (std::find(seen.begin(), seen.end(), text) != seen.end()) continue;
      seen.push_back(text);
      auto parsed = PathExpression::Parse(text, g.symbols());
      if (parsed.ok()) out.push_back(*std::move(parsed));
      if (out.size() >= limit) break;
    }
  }
  return out;
}

TEST(ParallelBuildTest, RefineBatchMatchesSequentialRefine) {
  const DataGraph g = RandomGraph(29, 400, 5, 200);
  const std::vector<PathExpression> fups = SamplePaths(g, 12);
  ASSERT_FALSE(fups.empty());

  MStarIndex sequential(g);
  for (const PathExpression& fup : fups) sequential.Refine(fup);
  const std::string expected = Fingerprint(sequential);

  MStarIndex batched(g);
  batched.RefineBatch(fups);
  EXPECT_EQ(Fingerprint(batched), expected);

  for (size_t threads : {2u, 8u}) {
    ThreadPool pool(threads);
    MStarIndex pooled(g);
    pooled.set_thread_pool(&pool);
    pooled.RefineBatch(fups);
    EXPECT_EQ(Fingerprint(pooled), expected) << "threads=" << threads;
  }
}

TEST(ParallelBuildTest, PooledSessionRefinerAnswersExactly) {
  const DataGraph g = RandomGraph(41, 300, 5, 150);
  const std::vector<PathExpression> queries = SamplePaths(g, 8);
  ASSERT_FALSE(queries.empty());
  DataEvaluator truth(g);

  server::ConcurrentSessionOptions options;
  options.refine_after = 1;
  options.refine_threads = 2;
  server::ConcurrentSession session(g, options);
  for (int round = 0; round < 3; ++round) {
    for (const PathExpression& q : queries) {
      EXPECT_EQ(session.Query(q).answer, truth.Evaluate(q));
    }
  }
  session.DrainRefinements();
  for (const PathExpression& q : queries) {
    EXPECT_EQ(session.Peek(q).answer, truth.Evaluate(q));
  }
  EXPECT_GT(session.refinements_applied(), 0u);
}

}  // namespace
}  // namespace mrx
