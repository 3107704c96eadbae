#ifndef MRX_INDEX_STRATEGY_CHOOSER_H_
#define MRX_INDEX_STRATEGY_CHOOSER_H_

#include <vector>

#include "index/m_star_index.h"
#include "query/path_expression.h"

namespace mrx {

/// One row of an EXPLAIN decision table: a strategy the chooser looked at,
/// its estimated cost, and whether the path's shape even permits it
/// (anchored paths force top-down; descendant axes force naive).
struct StrategyCandidate {
  MStarQueryStrategy strategy;
  double estimated_cost = 0;
  bool eligible = true;
  bool chosen = false;
};

/// \brief A cost-based chooser for the §4.1 strategies — the "interesting
/// query optimization problem" the paper leaves open.
///
/// The estimate uses only catalog-grade statistics that are O(1) to
/// maintain: per-component label-row sizes (how many index nodes carry
/// each label). Top-down's cost is dominated by the prefix frontiers in
/// successively finer components; naive's by frontiers that all live in
/// the finest component; bottom-up additionally pays a downward re-check
/// per candidate, which the estimator charges as a multiplicative penalty.
/// The frontier-size estimates are crude upper bounds (label-row sizes,
/// ignoring edge selectivity), but the *relative* order they induce is
/// what the choice needs.
class StrategyChooser {
 public:
  /// Builds label-row statistics for the index's current components.
  /// Cheap (one pass over index nodes); rebuild after refinement batches.
  explicit StrategyChooser(const MStarIndex& index);

  /// Picks a strategy for `path`. Anchored and descendant-axis paths
  /// always pick strategies that support them (top-down / naive).
  MStarQueryStrategy Choose(const PathExpression& path) const;

  /// The full decision table behind Choose: all four strategies with their
  /// estimated costs, eligibility under the path's shape, and which one
  /// Choose picks. Rows come back in enum order; exactly one is chosen.
  std::vector<StrategyCandidate> ExplainChoice(
      const PathExpression& path) const;

  /// The estimated index-node visits used for the decision (exposed for
  /// tests and the ablation bench).
  double EstimateCost(const PathExpression& path,
                      MStarQueryStrategy strategy) const;

 private:
  /// Number of alive index nodes with label `l` in component `ci`
  /// (wildcard = all nodes of the component).
  double RowSize(size_t ci, LabelId l) const;

  /// label_rows_[ci][label] = node count; labels beyond the table are 0.
  std::vector<std::vector<uint32_t>> label_rows_;
  std::vector<uint32_t> component_sizes_;
};

}  // namespace mrx

#endif  // MRX_INDEX_STRATEGY_CHOOSER_H_
