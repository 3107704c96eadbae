#include "index/strategy_chooser.h"

#include <algorithm>

namespace mrx {
namespace {

// Multiplier on the bottom-up/hybrid downward-check term. The checks walk
// real frontiers, so they cost far more than one node visit per candidate;
// 4 reproduces the empirical ordering on the XMark workloads.
constexpr double kDownCheckPenalty = 4.0;

}  // namespace

StrategyChooser::StrategyChooser(const MStarIndex& index) {
  const size_t num_labels = index.component(0).data().symbols().size();
  label_rows_.resize(index.num_components());
  component_sizes_.resize(index.num_components());
  for (size_t ci = 0; ci < index.num_components(); ++ci) {
    label_rows_[ci].assign(num_labels, 0);
    const IndexGraph& comp = index.component(ci);
    component_sizes_[ci] = static_cast<uint32_t>(comp.num_nodes());
    for (IndexNodeId v : comp.AliveNodes()) {
      ++label_rows_[ci][comp.node(v).label];
    }
  }
}

double StrategyChooser::RowSize(size_t ci, LabelId l) const {
  ci = std::min(ci, label_rows_.size() - 1);
  if (l == kWildcardLabel) return component_sizes_[ci];
  if (l == kUnknownLabel || l >= label_rows_[ci].size()) return 0;
  return label_rows_[ci][l];
}

double StrategyChooser::EstimateCost(const PathExpression& path,
                                     MStarQueryStrategy strategy) const {
  const size_t finest = label_rows_.size() - 1;
  const size_t j = path.length();
  switch (strategy) {
    case MStarQueryStrategy::kNaive: {
      // Every frontier lives in the finest needed component.
      const size_t cq = std::min(j, finest);
      double cost = 0;
      for (size_t i = 0; i < path.num_steps(); ++i) {
        cost += RowSize(cq, path.label(i));
      }
      return cost;
    }
    case MStarQueryStrategy::kTopDown: {
      // Prefix i runs in component min(i, finest): coarse rows first.
      double cost = 0;
      for (size_t i = 0; i < path.num_steps(); ++i) {
        cost += RowSize(std::min(i, finest), path.label(i));
        // Descent step: subnodes of the previous frontier.
        if (i > 0 && std::min(i, finest) != std::min(i - 1, finest)) {
          cost += RowSize(std::min(i, finest), path.label(i - 1));
        }
      }
      return cost;
    }
    case MStarQueryStrategy::kBottomUp: {
      // Suffix s runs in component min(s, finest); each candidate pays a
      // downward re-check that itself walks frontiers of the grown suffix,
      // so the penalty is superlinear in the suffix length (empirically
      // the checks dominate; see the strategy ablation bench).
      double cost = 0;
      for (size_t s = 0; s <= j; ++s) {
        const size_t ci = std::min(s, finest);
        double candidates = RowSize(ci, path.label(j - s));
        double check = (1.0 + static_cast<double>(s));
        cost += candidates * (1.0 + kDownCheckPenalty * check * check);
      }
      return cost;
    }
    case MStarQueryStrategy::kHybrid: {
      const size_t meet = path.num_steps() / 2;
      double cost = 0;
      const size_t cq = std::min(j, finest);
      for (size_t i = 0; i <= meet && i < path.num_steps(); ++i) {
        cost += RowSize(cq, path.label(i));
      }
      for (size_t s = 0; s <= j - meet; ++s) {
        const size_t ci = std::min(s, finest);
        double check = (1.0 + static_cast<double>(s));
        cost += RowSize(ci, path.label(j - s)) *
                (1.0 + kDownCheckPenalty * check * check);
      }
      return cost;
    }
  }
  return 0;
}

MStarQueryStrategy StrategyChooser::Choose(
    const PathExpression& path) const {
  if (path.anchored()) return MStarQueryStrategy::kTopDown;
  if (path.HasDescendantAxis()) return MStarQueryStrategy::kNaive;
  MStarQueryStrategy best = MStarQueryStrategy::kNaive;
  double best_cost = EstimateCost(path, best);
  for (MStarQueryStrategy s :
       {MStarQueryStrategy::kTopDown, MStarQueryStrategy::kBottomUp,
        MStarQueryStrategy::kHybrid}) {
    double cost = EstimateCost(path, s);
    if (cost < best_cost) {
      best = s;
      best_cost = cost;
    }
  }
  return best;
}

std::vector<StrategyCandidate> StrategyChooser::ExplainChoice(
    const PathExpression& path) const {
  const MStarQueryStrategy chosen = Choose(path);
  std::vector<StrategyCandidate> table;
  for (MStarQueryStrategy s : kMStarQueryStrategies) {
    StrategyCandidate c;
    c.strategy = s;
    c.estimated_cost = EstimateCost(path, s);
    if (path.anchored()) {
      c.eligible = s == MStarQueryStrategy::kTopDown;
    } else if (path.HasDescendantAxis()) {
      c.eligible = s == MStarQueryStrategy::kNaive;
    }
    c.chosen = s == chosen;
    table.push_back(c);
  }
  return table;
}

}  // namespace mrx
