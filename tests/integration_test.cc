// End-to-end integration tests on the generated datasets: the whole
// pipeline (generator → parser → graph → workload → every index) must
// produce exact answers, and the paper's §5 observations must hold
// qualitatively at reduced scale.

#include <gtest/gtest.h>

#include "harness/datasets.h"
#include "index/a_k_index.h"
#include "index/d_k_index.h"
#include "index/m_k_index.h"
#include "index/m_star_index.h"
#include "query/data_evaluator.h"
#include "workload/generator.h"
#include "workload/label_paths.h"

namespace mrx {
namespace {

struct Dataset {
  const char* name;
};

// Without this gtest prints the raw pointer bytes, which change with every
// process launch and so make the listed test names unstable.
void PrintTo(const Dataset& d, std::ostream* os) { *os << d.name; }

class IntegrationTest : public ::testing::TestWithParam<Dataset> {
 protected:
  static DataGraph Load(const std::string& name) {
    auto g = name == "xmark" ? harness::BuildXMarkGraph(0.05)
                             : harness::BuildNasaGraph(0.05);
    EXPECT_TRUE(g.ok()) << g.status();
    return std::move(g).value();
  }

  static std::vector<PathExpression> Workload(const DataGraph& g,
                                              size_t n, size_t max_len) {
    LabelPathEnumerationOptions eo;
    eo.max_length = 9;
    LabelPathSet paths = EnumerateLabelPaths(g, eo);
    WorkloadOptions wo;
    wo.num_queries = n;
    wo.max_query_length = max_len;
    wo.seed = 99;
    return GenerateWorkload(paths, wo);
  }
};

TEST_P(IntegrationTest, AllIndexesExactOnSampledWorkload) {
  DataGraph g = Load(GetParam().name);
  DataEvaluator eval(g);
  auto workload = Workload(g, 40, 6);

  std::vector<std::vector<NodeId>> expected;
  expected.reserve(workload.size());
  for (const auto& q : workload) expected.push_back(eval.Evaluate(q));

  for (int k : {0, 2, 4}) {
    AkIndex ak(g, k);
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_EQ(ak.Query(workload[i]).answer, expected[i])
          << "A(" << k << ") " << workload[i].ToString(g.symbols());
    }
  }
  {
    DkIndex dk = DkIndex::Construct(g, workload);
    ASSERT_TRUE(dk.graph().CheckConsistency().ok());
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_EQ(dk.Query(workload[i]).answer, expected[i]);
      ASSERT_TRUE(dk.Query(workload[i]).precise);
    }
  }
  {
    DkIndex dk(g);
    MkIndex mk(g);
    MStarIndex mstar(g);
    for (const auto& q : workload) {
      dk.Promote(q);
      mk.Refine(q);
      mstar.Refine(q);
    }
    ASSERT_TRUE(dk.graph().CheckConsistency().ok());
    ASSERT_TRUE(mk.graph().CheckConsistency().ok());
    ASSERT_TRUE(mstar.CheckProperties().ok()) << mstar.CheckProperties();
    for (size_t i = 0; i < workload.size(); ++i) {
      ASSERT_EQ(dk.Query(workload[i]).answer, expected[i]);
      ASSERT_EQ(mk.Query(workload[i]).answer, expected[i]);
      ASSERT_EQ(mstar.QueryTopDown(workload[i], &eval).answer, expected[i]);
      ASSERT_TRUE(mk.Query(workload[i]).precise);
      ASSERT_TRUE(mstar.QueryNaive(workload[i], &eval).precise);
    }
    // Fresh, never-refined queries are still exact on all of them.
    for (const auto& q : Workload(g, 15, 5)) {
      std::vector<NodeId> truth = eval.Evaluate(q);
      ASSERT_EQ(dk.Query(q).answer, truth);
      ASSERT_EQ(mk.Query(q).answer, truth);
      ASSERT_EQ(mstar.QueryTopDown(q, &eval).answer, truth);
    }
  }
}

TEST_P(IntegrationTest, PaperShapeHoldsAtReducedScale) {
  DataGraph g = Load(GetParam().name);
  auto workload = Workload(g, 80, 9);

  MkIndex mk(g);
  DkIndex dkp(g);
  MStarIndex mstar(g);
  DataEvaluator eval(g);
  for (const auto& q : workload) {
    mk.Refine(q);
    dkp.Promote(q);
    mstar.Refine(q);
  }
  auto avg = [&](auto query_fn) {
    uint64_t total = 0;
    for (const auto& q : workload) total += query_fn(q).stats.total();
    return static_cast<double>(total) / workload.size();
  };
  double mk_cost = avg([&](const auto& q) { return mk.Query(q); });
  double dkp_cost = avg([&](const auto& q) { return dkp.Query(q); });
  double mstar_cost =
      avg([&](const auto& q) { return mstar.QueryTopDown(q, &eval); });

  // The paper's headline orderings (§5.1).
  EXPECT_LE(mk.graph().num_nodes(), dkp.graph().num_nodes());
  EXPECT_LE(mk_cost, dkp_cost * 1.05);
  EXPECT_LT(mstar_cost, mk_cost);
  EXPECT_LT(mstar_cost, dkp_cost);
  // At reduced scale M*(k)'s node count is within noise of M(k)'s (the
  // decisive gap appears at full scale; see EXPERIMENTS.md).
  EXPECT_LE(mstar.PhysicalNodeCount(),
            mk.graph().num_nodes() + mk.graph().num_nodes() / 10);
}

TEST_P(IntegrationTest, AkCostFallsThenIndexGrows) {
  DataGraph g = Load(GetParam().name);
  auto workload = Workload(g, 50, 9);
  double prev_cost = 0;
  size_t prev_nodes = 0;
  bool first = true;
  for (int k : {0, 2, 4}) {
    AkIndex index(g, k);
    uint64_t total = 0;
    for (const auto& q : workload) total += index.Query(q).stats.total();
    double cost = static_cast<double>(total) / workload.size();
    if (!first) {
      EXPECT_LT(cost, prev_cost) << "k=" << k;
      EXPECT_GT(index.graph().num_nodes(), prev_nodes);
    }
    prev_cost = cost;
    prev_nodes = index.graph().num_nodes();
    first = false;
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, IntegrationTest,
                         ::testing::Values(Dataset{"xmark"},
                                           Dataset{"nasa"}),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace mrx
