#ifndef MRX_HARNESS_EXPERIMENT_H_
#define MRX_HARNESS_EXPERIMENT_H_

#include <string>
#include <vector>

#include "graph/data_graph.h"
#include "index/m_star_index.h"
#include "query/path_expression.h"

namespace mrx::harness {

/// Index size sampled during incremental refinement (Figures 14-17/23-26).
struct GrowthPoint {
  size_t queries_processed = 0;
  size_t nodes = 0;
  size_t edges = 0;
};

/// The measurements behind one curve/point of the paper's figures.
struct IndexRunResult {
  std::string index_name;
  size_t nodes = 0;           ///< Final index size in nodes.
  size_t edges = 0;           ///< Final index size in edges.
  double avg_query_cost = 0;  ///< Average per-query cost on the (re)run.
  double avg_index_cost = 0;  ///< ... the index-graph-visit component.
  double avg_validation_cost = 0;  ///< ... the validation component.
  std::vector<GrowthPoint> growth;  ///< Adaptive indexes only.
};

/// \brief Replays the paper's experimental procedure (§5) for one dataset
/// and workload: build/refine each index, then rerun the workload and
/// report average per-query cost and index sizes.
class ExperimentDriver {
 public:
  /// `graph` must outlive the driver. The workload doubles as the FUP set,
  /// as in the paper ("Our workload consists of 500 queries ... as FUPs").
  ExperimentDriver(const DataGraph& graph,
                   std::vector<PathExpression> workload);

  /// A(k): static build, one workload pass (validation costs included).
  IndexRunResult RunAk(int k);

  /// D(k)-construct: build from the whole FUP set, then rerun.
  IndexRunResult RunDkConstruct();

  /// D(k)-promote: start at A(0), PROMOTE per query, sample size every
  /// `growth_interval` queries, then rerun.
  IndexRunResult RunDkPromote(size_t growth_interval = 50);

  /// M(k): start at A(0), REFINE per query, sample, rerun.
  IndexRunResult RunMk(size_t growth_interval = 50);

  /// M*(k): start at {I0}, REFINE* per query, sample physical sizes,
  /// rerun with the given §4.1 strategy (top-down is the paper's choice
  /// for §5).
  IndexRunResult RunMStar(
      size_t growth_interval = 50,
      MStarQueryStrategy strategy = MStarQueryStrategy::kTopDown);

  const std::vector<PathExpression>& workload() const { return workload_; }
  const DataGraph& graph() const { return graph_; }

 private:
  const DataGraph& graph_;
  std::vector<PathExpression> workload_;
};

}  // namespace mrx::harness

#endif  // MRX_HARNESS_EXPERIMENT_H_
