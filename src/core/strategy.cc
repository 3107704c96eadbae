#include "core/strategy.h"

#include "obs/metrics.h"

namespace mrx {

MStarQueryStrategy ResolveStrategy(SessionOptions::Strategy strategy,
                                   const StrategyChooser& chooser,
                                   const PathExpression& path) {
  switch (strategy) {
    case SessionOptions::Strategy::kTopDown:
      return MStarQueryStrategy::kTopDown;
    case SessionOptions::Strategy::kNaive:
      return MStarQueryStrategy::kNaive;
    case SessionOptions::Strategy::kBottomUp:
      return MStarQueryStrategy::kBottomUp;
    case SessionOptions::Strategy::kHybrid:
      return MStarQueryStrategy::kHybrid;
    case SessionOptions::Strategy::kAuto:
      break;
  }
  // Counting the kAuto decisions makes the traffic mix visible in any
  // metrics exposition. Handles are resolved once; the hot path is one
  // striped-atomic increment.
  static obs::Counter* const counters[] = {
      obs::MetricsRegistry::Global().GetCounter(
          "mrx_strategy_chosen_naive_total"),
      obs::MetricsRegistry::Global().GetCounter(
          "mrx_strategy_chosen_topdown_total"),
      obs::MetricsRegistry::Global().GetCounter(
          "mrx_strategy_chosen_bottomup_total"),
      obs::MetricsRegistry::Global().GetCounter(
          "mrx_strategy_chosen_hybrid_total")};
  const MStarQueryStrategy chosen = chooser.Choose(path);
  counters[static_cast<size_t>(chosen)]->Increment();
  return chosen;
}

void ExplainStrategy(const StrategyChooser& chooser,
                     const PathExpression& path, MStarQueryStrategy used,
                     obs::QueryDiag* diag) {
  diag->strategy = StrategyName(used);
  // The table lists every method, so it holds `used`'s estimate too.
  for (const StrategyCandidate& c : chooser.ExplainChoice(path)) {
    obs::QueryDiag::Candidate row;
    row.strategy = StrategyName(c.strategy);
    row.estimated_cost = c.estimated_cost;
    row.eligible = c.eligible;
    row.chosen = c.strategy == used;
    if (row.chosen) diag->estimated_cost = c.estimated_cost;
    diag->considered.push_back(row);
  }
}

}  // namespace mrx
