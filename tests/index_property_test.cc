// Property-based sweep across all five indexes on random cyclic graphs:
// every index must stay *safe and exact* for every query, the adaptive
// indexes must be *precise* for every refined FUP, and the structural
// invariants of §3/§4 must survive arbitrary refinement sequences.

#include <gtest/gtest.h>

#include "index/a_k_index.h"
#include "index/d_k_index.h"
#include "index/m_k_index.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "tests/test_util.h"
#include "workload/generator.h"
#include "workload/label_paths.h"

namespace mrx {
namespace {

using mrx::testing::RandomGraph;

struct SweepCase {
  uint64_t seed;
  size_t nodes;
  size_t labels;
  size_t extra_edges;
};

class IndexSweepTest : public ::testing::TestWithParam<SweepCase> {
 protected:
  /// A workload of genuine label paths of the random graph.
  static std::vector<PathExpression> MakeWorkload(const DataGraph& g,
                                                  uint64_t seed,
                                                  size_t count,
                                                  size_t max_len) {
    LabelPathEnumerationOptions enum_options;
    enum_options.max_length = max_len;
    enum_options.max_paths = 5000;
    LabelPathSet paths = EnumerateLabelPaths(g, enum_options);
    WorkloadOptions options;
    options.num_queries = count;
    options.max_query_length = max_len;
    options.seed = seed;
    return GenerateWorkload(paths, options);
  }
};

TEST_P(IndexSweepTest, AkFamilyIsExactEverywhere) {
  const SweepCase& c = GetParam();
  DataGraph g = RandomGraph(c.seed, c.nodes, c.labels, c.extra_edges);
  DataEvaluator eval(g);
  auto workload = MakeWorkload(g, c.seed + 1, 25, 4);
  for (int k = 0; k <= 3; ++k) {
    AkIndex index(g, k);
    for (const PathExpression& q : workload) {
      ASSERT_EQ(index.Query(q).answer, eval.Evaluate(q))
          << "k=" << k << " q=" << q.ToString(g.symbols());
    }
  }
  OneIndex one(g);
  for (const PathExpression& q : workload) {
    ASSERT_EQ(one.Query(q).answer, eval.Evaluate(q));
    EXPECT_TRUE(one.Query(q).precise);
  }
}

TEST_P(IndexSweepTest, MkRefinementSequenceKeepsAllInvariants) {
  const SweepCase& c = GetParam();
  DataGraph g = RandomGraph(c.seed, c.nodes, c.labels, c.extra_edges);
  DataEvaluator eval(g);
  auto workload = MakeWorkload(g, c.seed + 2, 20, 4);

  MkIndex index(g);
  std::vector<PathExpression> refined;
  for (const PathExpression& q : workload) {
    index.Refine(q);
    refined.push_back(q);
    ASSERT_TRUE(index.graph().CheckConsistency().ok())
        << index.graph().CheckConsistency();
    ASSERT_TRUE(mrx::testing::SatisfiesProperty3(index.graph()));
    // Every refined FUP so far stays precise and exact.
    for (const PathExpression& p : refined) {
      QueryResult r = index.Query(p);
      ASSERT_EQ(r.answer, eval.Evaluate(p)) << p.ToString(g.symbols());
      ASSERT_TRUE(r.precise) << p.ToString(g.symbols());
    }
  }
  // Property 1 (the expensive oracle check) once at the end.
  EXPECT_TRUE(mrx::testing::ExtentsAreKBisimilar(index.graph()));
  // And arbitrary other queries remain exact (validation catches them).
  for (const PathExpression& q : MakeWorkload(g, c.seed + 3, 15, 4)) {
    EXPECT_EQ(index.Query(q).answer, eval.Evaluate(q));
  }
}

TEST_P(IndexSweepTest, DkPromoteSequenceStaysExact) {
  const SweepCase& c = GetParam();
  DataGraph g = RandomGraph(c.seed, c.nodes, c.labels, c.extra_edges);
  DataEvaluator eval(g);
  auto workload = MakeWorkload(g, c.seed + 4, 15, 4);

  DkIndex index(g);
  for (const PathExpression& q : workload) {
    index.Promote(q);
    ASSERT_TRUE(index.graph().CheckConsistency().ok());
  }
  EXPECT_TRUE(mrx::testing::ExtentsAreKBisimilar(index.graph()));
  EXPECT_TRUE(mrx::testing::SatisfiesProperty3(index.graph()));
  for (const PathExpression& q : workload) {
    QueryResult r = index.Query(q);
    ASSERT_EQ(r.answer, eval.Evaluate(q)) << q.ToString(g.symbols());
    ASSERT_TRUE(r.precise) << q.ToString(g.symbols());
  }
}

TEST_P(IndexSweepTest, DkConstructSupportsWholeWorkload) {
  const SweepCase& c = GetParam();
  DataGraph g = RandomGraph(c.seed, c.nodes, c.labels, c.extra_edges);
  DataEvaluator eval(g);
  auto workload = MakeWorkload(g, c.seed + 5, 15, 4);
  DkIndex index = DkIndex::Construct(g, workload);
  ASSERT_TRUE(index.graph().CheckConsistency().ok());
  EXPECT_TRUE(mrx::testing::ExtentsAreKBisimilar(index.graph()));
  for (const PathExpression& q : workload) {
    QueryResult r = index.Query(q);
    ASSERT_EQ(r.answer, eval.Evaluate(q)) << q.ToString(g.symbols());
    ASSERT_TRUE(r.precise) << q.ToString(g.symbols());
  }
}

TEST_P(IndexSweepTest, MStarRefinementSequenceKeepsAllInvariants) {
  const SweepCase& c = GetParam();
  DataGraph g = RandomGraph(c.seed, c.nodes, c.labels, c.extra_edges);
  DataEvaluator eval(g);
  auto workload = MakeWorkload(g, c.seed + 6, 15, 4);

  MStarIndex index(g);
  std::vector<PathExpression> refined;
  for (const PathExpression& q : workload) {
    index.Refine(q);
    refined.push_back(q);
    ASSERT_TRUE(index.CheckProperties().ok())
        << index.CheckProperties() << " after " << q.ToString(g.symbols());
    for (const PathExpression& p : refined) {
      QueryResult naive = index.QueryNaive(p, &eval);
      QueryResult topdown = index.QueryTopDown(p, &eval);
      ASSERT_EQ(naive.answer, eval.Evaluate(p)) << p.ToString(g.symbols());
      ASSERT_EQ(topdown.answer, naive.answer) << p.ToString(g.symbols());
      ASSERT_TRUE(naive.precise) << p.ToString(g.symbols());
    }
  }
  for (size_t i = 0; i < index.num_components(); ++i) {
    EXPECT_TRUE(mrx::testing::ExtentsAreKBisimilar(index.component(i)))
        << "component " << i;
  }
  // Fresh queries (not refined) stay exact through validation, under all
  // three strategies.
  for (const PathExpression& q : MakeWorkload(g, c.seed + 7, 10, 4)) {
    std::vector<NodeId> expected = eval.Evaluate(q);
    EXPECT_EQ(index.QueryNaive(q, &eval).answer, expected);
    EXPECT_EQ(index.QueryTopDown(q, &eval).answer, expected);
    if (q.num_steps() >= 2) {
      EXPECT_EQ(index.QueryWithPrefilter(q, 1, q.num_steps() - 1, &eval).answer,
                expected);
    }
  }
}

TEST_P(IndexSweepTest, AdaptiveIndexSizesOrderSensibly) {
  // The paper's headline size result: M(k) out-compacts D(k)-promote on
  // the same FUP sequence (both start from A(0); M(k) merges irrelevant
  // pieces, D(k) does not). This is an experimental claim, not a
  // per-instance theorem — separating the remainder can occasionally cost
  // one extra node — so allow a 10% slack here; the Figure 3 unit test
  // asserts the strict contrast on the paper's own example, and the bench
  // suite shows the aggregate gap on XMark/NASA.
  const SweepCase& c = GetParam();
  DataGraph g = RandomGraph(c.seed, c.nodes, c.labels, c.extra_edges);
  auto workload = MakeWorkload(g, c.seed + 8, 15, 4);
  MkIndex mk(g);
  DkIndex dk(g);
  for (const PathExpression& q : workload) {
    mk.Refine(q);
    dk.Promote(q);
  }
  EXPECT_LE(mk.graph().num_nodes(),
            dk.graph().num_nodes() + dk.graph().num_nodes() / 10 + 1);
}

INSTANTIATE_TEST_SUITE_P(
    RandomGraphs, IndexSweepTest,
    ::testing::Values(SweepCase{1, 30, 3, 15}, SweepCase{2, 40, 4, 20},
                      SweepCase{3, 50, 5, 10}, SweepCase{4, 60, 4, 30},
                      SweepCase{5, 25, 2, 20}, SweepCase{6, 45, 6, 25},
                      SweepCase{7, 35, 3, 35}, SweepCase{8, 55, 5, 15}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace mrx
