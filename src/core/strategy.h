#ifndef MRX_CORE_STRATEGY_H_
#define MRX_CORE_STRATEGY_H_

#include "index/m_star_index.h"
#include "index/strategy_chooser.h"
#include "obs/query_diag.h"
#include "query/path_expression.h"

namespace mrx {

/// Holds the strategy selector of the Figure 5 loop. The loop itself is
/// server::ConcurrentSession, whose ConcurrentSessionOptions carry every
/// other knob; the enum keeps its `SessionOptions::Strategy` spelling.
struct SessionOptions {
  /// Evaluation strategy for answering queries. kAuto picks per query
  /// with the StrategyChooser of the published index; see ResolveStrategy.
  enum class Strategy { kTopDown, kNaive, kBottomUp, kHybrid, kAuto };
};

/// Resolves a session strategy for `path`: a fixed strategy maps to its
/// §4.1 method; kAuto asks `chooser` and counts the decision in
/// mrx_strategy_chosen_<name>_total. The session and `mrx query` /
/// `mrx explain` resolve through this one function.
MStarQueryStrategy ResolveStrategy(SessionOptions::Strategy strategy,
                                   const StrategyChooser& chooser,
                                   const PathExpression& path);

/// Fills EXPLAIN's strategy decision into `diag`: the strategy that ran
/// (`used`), the chooser's estimate for it, and the chooser's table over
/// every §4.1 method with `used` flagged as chosen. A fixed strategy
/// overrides the chooser, so the flag marks what ran and the estimates
/// stay as the comparison column. The session and the CLI both call this.
void ExplainStrategy(const StrategyChooser& chooser,
                     const PathExpression& path, MStarQueryStrategy used,
                     obs::QueryDiag* diag);

}  // namespace mrx

#endif  // MRX_CORE_STRATEGY_H_
