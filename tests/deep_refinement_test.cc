// Heavier property tests: long FUPs (length up to 7) drive deep component
// hierarchies and deep REFINENODE recursion; precision boundaries of the
// A(k) family; and refinement-order robustness of the adaptive indexes.

#include <gtest/gtest.h>

#include <algorithm>

#include "index/a_k_index.h"
#include "index/m_k_index.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "tests/test_util.h"
#include "workload/generator.h"
#include "workload/label_paths.h"

namespace mrx {
namespace {

using mrx::testing::RandomGraph;

std::vector<PathExpression> LongWorkload(const DataGraph& g, uint64_t seed,
                                         size_t count, size_t min_len,
                                         size_t max_len) {
  LabelPathEnumerationOptions eo;
  eo.max_length = max_len + 1;
  eo.max_paths = 20000;
  LabelPathSet paths = EnumerateLabelPaths(g, eo);
  WorkloadOptions wo;
  wo.num_queries = count * 6;  // Oversample, then filter by length.
  wo.max_query_length = max_len;
  wo.seed = seed;
  std::vector<PathExpression> all = GenerateWorkload(paths, wo);
  std::vector<PathExpression> out;
  for (auto& q : all) {
    if (q.length() >= min_len && out.size() < count) {
      out.push_back(std::move(q));
    }
  }
  return out;
}

TEST(DeepRefinementTest, MkHandlesLongFups) {
  DataGraph g = RandomGraph(301, 70, 3, 40);
  DataEvaluator eval(g);
  auto fups = LongWorkload(g, 7, 6, 5, 7);
  if (fups.empty()) GTEST_SKIP() << "graph has no long label paths";

  MkIndex index(g);
  for (const auto& q : fups) {
    index.Refine(q);
    ASSERT_TRUE(index.graph().CheckConsistency().ok());
    ASSERT_TRUE(mrx::testing::SatisfiesProperty3(index.graph()));
  }
  for (const auto& q : fups) {
    QueryResult r = index.Query(q);
    ASSERT_TRUE(r.precise) << q.ToString(g.symbols());
    ASSERT_EQ(r.answer, eval.Evaluate(q));
  }
}

TEST(DeepRefinementTest, MStarHandlesLongFups) {
  DataGraph g = RandomGraph(303, 70, 3, 40);
  DataEvaluator eval(g);
  auto fups = LongWorkload(g, 11, 5, 5, 7);
  if (fups.empty()) GTEST_SKIP() << "graph has no long label paths";

  MStarIndex index(g);
  for (const auto& q : fups) {
    index.Refine(q);
    ASSERT_TRUE(index.CheckProperties().ok()) << index.CheckProperties();
  }
  size_t max_len = 0;
  for (const auto& q : fups) max_len = std::max(max_len, q.length());
  EXPECT_EQ(index.num_components(), max_len + 1);
  for (const auto& q : fups) {
    ASSERT_EQ(index.QueryTopDown(q, &eval).answer, eval.Evaluate(q));
    ASSERT_TRUE(index.QueryNaive(q, &eval).precise) << q.ToString(g.symbols());
    ASSERT_EQ(index.QueryBottomUp(q, &eval).answer, eval.Evaluate(q));
  }
}

TEST(DeepRefinementTest, RefinementOrderDoesNotAffectSupport) {
  DataGraph g = RandomGraph(307, 50, 4, 25);
  DataEvaluator eval(g);
  auto fups = LongWorkload(g, 13, 6, 2, 5);
  if (fups.size() < 3) GTEST_SKIP() << "not enough fups";

  MStarIndex forward(g);
  MStarIndex backward(g);
  for (const auto& q : fups) forward.Refine(q);
  for (auto it = fups.rbegin(); it != fups.rend(); ++it) {
    backward.Refine(*it);
  }
  ASSERT_TRUE(forward.CheckProperties().ok());
  ASSERT_TRUE(backward.CheckProperties().ok());
  for (const auto& q : fups) {
    EXPECT_TRUE(forward.QueryNaive(q, &eval).precise)
        << q.ToString(g.symbols());
    EXPECT_TRUE(backward.QueryNaive(q, &eval).precise)
        << q.ToString(g.symbols());
    EXPECT_EQ(forward.QueryTopDown(q, &eval).answer,
              backward.QueryTopDown(q, &eval).answer);
  }
}

class AkPrecisionBoundaryTest : public ::testing::TestWithParam<int> {};

TEST_P(AkPrecisionBoundaryTest, PreciseExactlyUpToK) {
  const int k = GetParam();
  DataGraph g = RandomGraph(311, 60, 3, 30);
  DataEvaluator eval(g);
  AkIndex index(g, k);
  auto queries = LongWorkload(g, 17, 25, 0, 8);
  for (const auto& q : queries) {
    QueryResult r = index.Query(q);
    ASSERT_EQ(r.answer, eval.Evaluate(q));
    if (static_cast<int>(q.length()) <= k) {
      EXPECT_TRUE(r.precise)
          << "A(" << k << ") must be precise for length " << q.length();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, AkPrecisionBoundaryTest,
                         ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace mrx
