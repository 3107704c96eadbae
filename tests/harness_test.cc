#include <gtest/gtest.h>

#include <sstream>

#include "harness/datasets.h"
#include "harness/experiment.h"
#include "harness/report.h"
#include "workload/generator.h"
#include "workload/label_paths.h"

namespace mrx::harness {
namespace {

std::vector<PathExpression> SmallWorkload(const DataGraph& g, size_t count,
                                          size_t max_len) {
  LabelPathEnumerationOptions enum_options;
  enum_options.max_length = max_len;
  LabelPathSet paths = EnumerateLabelPaths(g, enum_options);
  WorkloadOptions options;
  options.num_queries = count;
  options.max_query_length = max_len;
  options.seed = 4;
  return GenerateWorkload(paths, options);
}

TEST(DatasetsTest, XMarkGraphBuilds) {
  auto g = BuildXMarkGraph(/*scale=*/0.02);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_GT(g->num_nodes(), 500u);
  EXPECT_GT(g->num_reference_edges(), 10u);
}

TEST(DatasetsTest, NasaGraphBuilds) {
  auto g = BuildNasaGraph(/*scale=*/0.02);
  ASSERT_TRUE(g.ok()) << g.status();
  EXPECT_GT(g->num_nodes(), 500u);
  EXPECT_GT(g->num_reference_edges(), 10u);
}

TEST(DatasetsTest, BenchScaleFromEnvParses) {
  unsetenv("MRX_SCALE");
  EXPECT_EQ(BenchScaleFromEnv(0.5), 0.5);
  setenv("MRX_SCALE", "0.25", 1);
  EXPECT_EQ(BenchScaleFromEnv(0.5), 0.25);
  setenv("MRX_SCALE", "garbage", 1);
  EXPECT_EQ(BenchScaleFromEnv(0.5), 0.5);
  setenv("MRX_SCALE", "-1", 1);
  EXPECT_EQ(BenchScaleFromEnv(0.5), 0.5);
  unsetenv("MRX_SCALE");
}

TEST(ExperimentDriverTest, EndToEndSmallXMark) {
  auto g = BuildXMarkGraph(0.01);
  ASSERT_TRUE(g.ok()) << g.status();
  ExperimentDriver driver(*g, SmallWorkload(*g, 30, 4));

  IndexRunResult a0 = driver.RunAk(0);
  IndexRunResult a2 = driver.RunAk(2);
  IndexRunResult dkc = driver.RunDkConstruct();
  IndexRunResult dkp = driver.RunDkPromote(10);
  IndexRunResult mk = driver.RunMk(10);
  IndexRunResult mstar = driver.RunMStar(10);

  // Static index growth with k.
  EXPECT_LT(a0.nodes, a2.nodes);
  // A(0) pays heavy validation; refined adaptive indexes pay none.
  EXPECT_GT(a0.avg_validation_cost, 0.0);
  EXPECT_EQ(dkp.avg_validation_cost, 0.0);
  EXPECT_EQ(mk.avg_validation_cost, 0.0);
  EXPECT_EQ(mstar.avg_validation_cost, 0.0);
  EXPECT_EQ(dkc.avg_validation_cost, 0.0);
  // Adaptive indexes produced growth series (3 samples for 30 queries).
  EXPECT_EQ(dkp.growth.size(), 3u);
  EXPECT_EQ(mk.growth.size(), 3u);
  EXPECT_EQ(mstar.growth.size(), 3u);
  EXPECT_EQ(mk.growth.back().queries_processed, 30u);
  // Growth series are monotone in nodes.
  for (size_t i = 1; i < mk.growth.size(); ++i) {
    EXPECT_GE(mk.growth[i].nodes, mk.growth[i - 1].nodes);
  }
  // At this toy scale nearly every node is touched by some FUP, so the
  // M(k)-vs-D(k) size gap is within noise; just sanity-bound it (the
  // full-scale benches show the paper's gap).
  EXPECT_LE(mk.nodes, dkp.nodes + dkp.nodes / 5);
  EXPECT_GT(mstar.avg_query_cost, 0.0);
}

TEST(ExperimentDriverTest, MStarStrategiesBothWork) {
  auto g = BuildXMarkGraph(0.01);
  ASSERT_TRUE(g.ok());
  ExperimentDriver driver(*g, SmallWorkload(*g, 15, 4));
  IndexRunResult topdown = driver.RunMStar(50, MStarQueryStrategy::kTopDown);
  IndexRunResult naive = driver.RunMStar(50, MStarQueryStrategy::kNaive);
  EXPECT_EQ(topdown.nodes, naive.nodes);
  EXPECT_GT(topdown.avg_query_cost, 0.0);
  EXPECT_GT(naive.avg_query_cost, 0.0);
}

TEST(ReportTest, TablesRenderWithoutCrashing) {
  auto g = BuildXMarkGraph(0.01);
  ASSERT_TRUE(g.ok());
  ExperimentDriver driver(*g, SmallWorkload(*g, 10, 4));
  std::vector<IndexRunResult> runs = {driver.RunAk(0), driver.RunMk(5)};
  std::ostringstream os;
  PrintDatasetSummary(os, "xmark", *g);
  PrintCostVsSize(os, "figure", runs);
  PrintGrowth(os, "growth", {runs[1]});
  PrintHistogram(os, "hist", {0.5, 0.3, 0.2});
  std::string out = os.str();
  EXPECT_NE(out.find("A(0)"), std::string::npos);
  EXPECT_NE(out.find("M(k)"), std::string::npos);
  EXPECT_NE(out.find("avg_cost"), std::string::npos);
  EXPECT_NE(out.find("query_length"), std::string::npos);
}

}  // namespace
}  // namespace mrx::harness
