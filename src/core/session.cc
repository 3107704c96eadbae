#include "core/session.h"

#include <string>

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

AdaptiveIndexSession::AdaptiveIndexSession(const DataGraph& graph,
                                           SessionOptions options)
    : options_(options),
      index_(graph),
      chooser_(index_),
      validator_(graph),
      fups_(FupExtractor::Options{options.refine_after, 0}),
      cache_(options.cache_results ? options.cache_capacity : 0,
             /*num_shards=*/1) {}

QueryResult AdaptiveIndexSession::Query(const PathExpression& query) {
  if (fups_.Observe(query)) Refine(query);
  ++queries_answered_;

  std::string key;
  if (options_.cache_results) {
    key = query.ToString(index_.component(0).data().symbols());
    if (server::CachedAnswerPtr hit = cache_.Get(key, epoch_)) {
      ++cache_hits_;
      return server::ShardedAnswerCache::Unwrap(*hit, epoch_);
    }
  }

  QueryResult result = Peek(query);
  cumulative_stats_ += result.stats;
  if (options_.cache_results) {
    cache_.Put(key, server::ShardedAnswerCache::Wrap(result, epoch_), epoch_);
  }
  return result;
}

QueryResult AdaptiveIndexSession::Peek(const PathExpression& query) {
  return index_.Query(ResolveStrategy(options_.strategy, chooser_, query),
                      query, &validator_);
}

void AdaptiveIndexSession::Refine(const PathExpression& fup) {
  index_.Refine(fup);
  chooser_ = StrategyChooser(index_);
  // Refinement restructures the index; cached answers remain *correct*
  // (the data graph is immutable) but their precision flags would be
  // stale, so drop them wholesale.
  cache_.Invalidate(++epoch_);
}

}  // namespace mrx
