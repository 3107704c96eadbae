#include "harness/experiment.h"

#include "index/a_k_index.h"
#include "index/d_k_index.h"
#include "index/m_k_index.h"
#include "query/data_evaluator.h"
#include "query/stats.h"

namespace mrx::harness {
namespace {

/// Accumulates per-query costs of a full workload pass through `query_fn`.
template <typename QueryFn>
void MeasureWorkload(const std::vector<PathExpression>& workload,
                     QueryFn&& query_fn, IndexRunResult* result) {
  QueryStats total;
  for (const PathExpression& q : workload) total += query_fn(q).stats;
  const double n = static_cast<double>(workload.size());
  result->avg_query_cost = static_cast<double>(total.total()) / n;
  result->avg_index_cost =
      static_cast<double>(total.index_nodes_visited) / n;
  result->avg_validation_cost =
      static_cast<double>(total.data_nodes_validated) / n;
}

}  // namespace

ExperimentDriver::ExperimentDriver(const DataGraph& graph,
                                   std::vector<PathExpression> workload)
    : graph_(graph), workload_(std::move(workload)) {}

IndexRunResult ExperimentDriver::RunAk(int k) {
  IndexRunResult result;
  result.index_name = "A(" + std::to_string(k) + ")";
  AkIndex index(graph_, k);
  result.nodes = index.graph().num_nodes();
  result.edges = index.graph().num_edges();
  MeasureWorkload(
      workload_, [&](const PathExpression& q) { return index.Query(q); },
      &result);
  return result;
}

IndexRunResult ExperimentDriver::RunDkConstruct() {
  IndexRunResult result;
  result.index_name = "D(k)-construct";
  DkIndex index = DkIndex::Construct(graph_, workload_);
  result.nodes = index.graph().num_nodes();
  result.edges = index.graph().num_edges();
  MeasureWorkload(
      workload_, [&](const PathExpression& q) { return index.Query(q); },
      &result);
  return result;
}

IndexRunResult ExperimentDriver::RunDkPromote(size_t growth_interval) {
  IndexRunResult result;
  result.index_name = "D(k)-promote";
  DkIndex index(graph_);
  for (size_t i = 0; i < workload_.size(); ++i) {
    index.Promote(workload_[i]);
    if ((i + 1) % growth_interval == 0 || i + 1 == workload_.size()) {
      result.growth.push_back(GrowthPoint{i + 1, index.graph().num_nodes(),
                                          index.graph().num_edges()});
    }
  }
  result.nodes = index.graph().num_nodes();
  result.edges = index.graph().num_edges();
  MeasureWorkload(
      workload_, [&](const PathExpression& q) { return index.Query(q); },
      &result);
  return result;
}

IndexRunResult ExperimentDriver::RunMk(size_t growth_interval) {
  IndexRunResult result;
  result.index_name = "M(k)";
  MkIndex index(graph_);
  for (size_t i = 0; i < workload_.size(); ++i) {
    index.Refine(workload_[i]);
    if ((i + 1) % growth_interval == 0 || i + 1 == workload_.size()) {
      result.growth.push_back(GrowthPoint{i + 1, index.graph().num_nodes(),
                                          index.graph().num_edges()});
    }
  }
  result.nodes = index.graph().num_nodes();
  result.edges = index.graph().num_edges();
  MeasureWorkload(
      workload_, [&](const PathExpression& q) { return index.Query(q); },
      &result);
  return result;
}

IndexRunResult ExperimentDriver::RunMStar(size_t growth_interval,
                                          MStarQueryStrategy strategy) {
  IndexRunResult result;
  result.index_name = "M*(k)";
  MStarIndex index(graph_);
  for (size_t i = 0; i < workload_.size(); ++i) {
    index.Refine(workload_[i]);
    if ((i + 1) % growth_interval == 0 || i + 1 == workload_.size()) {
      const MStarIndex::PhysicalSize physical = index.Physical();
      result.growth.push_back(
          GrowthPoint{i + 1, physical.nodes, physical.edges});
    }
  }
  const MStarIndex::PhysicalSize physical = index.Physical();
  result.nodes = physical.nodes;
  result.edges = physical.edges;
  DataEvaluator validator(graph_);
  MeasureWorkload(
      workload_,
      [&](const PathExpression& q) {
        return index.Query(strategy, q, &validator);
      },
      &result);
  return result;
}

}  // namespace mrx::harness
