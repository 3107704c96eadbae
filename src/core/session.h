#ifndef MRX_CORE_SESSION_H_
#define MRX_CORE_SESSION_H_

#include <cstdint>

#include "index/m_star_index.h"
#include "index/strategy_chooser.h"
#include "query/data_evaluator.h"
#include "query/path_expression.h"
#include "server/answer_cache.h"
#include "workload/fup_extractor.h"

namespace mrx {

/// \brief The closed loop of the paper's Figure 5, packaged as the
/// library's primary user-facing API: a query processor over an adaptive
/// M*(k)-index with an attached FUP processor and refine processor.
///
///   1. initialize the index with k = 0 everywhere (A(0));
///   2. answer incoming queries on the index, validating when imprecise;
///   3. extract FUPs from the query stream;
///   4. refine the index to support each new FUP;
///   5. repeat.
///
/// Construct over a DataGraph (which must outlive the session), then just
/// call Query(): refinement happens automatically once a path expression
/// turns frequent.
///
/// It is a thin serial facade over the parts the concurrent server uses:
/// ResolveStrategy + MStarIndex::Query for evaluation, a StrategyChooser
/// rebuilt after each refinement, and a one-shard ShardedAnswerCache.
class AdaptiveIndexSession;

/// Options for AdaptiveIndexSession (a namespace-level type so it can be
/// used as an in-class default constructor argument).
struct SessionOptions {
  /// Observations before a query becomes a FUP and triggers refinement.
  size_t refine_after = 2;

  /// Evaluation strategy for answering queries. kAuto picks per query
  /// with StrategyChooser (rebuilt after each refinement); see
  /// ResolveStrategy.
  enum class Strategy { kTopDown, kNaive, kBottomUp, kHybrid, kAuto };
  Strategy strategy = Strategy::kTopDown;

  /// If true, answers are memoized per expression (the paper's §2 reading
  /// of APEX: "an efficiently organized cache of answers to FUPs"). The
  /// cache is invalidated whenever the index refines; hits are answered
  /// with zero index/validation cost.
  bool cache_results = false;

  /// Upper bound on cached answers; the least recently *used* entry is
  /// evicted first (a hit refreshes an entry's recency).
  size_t cache_capacity = 1024;
};

/// Resolves a session strategy for `path`: a fixed strategy maps to its
/// §4.1 method; kAuto asks `chooser` and counts the decision in
/// mrx_strategy_chosen_<name>_total. Both sessions and `mrx query` /
/// `mrx explain` resolve through this one function.
MStarQueryStrategy ResolveStrategy(SessionOptions::Strategy strategy,
                                   const StrategyChooser& chooser,
                                   const PathExpression& path);

class AdaptiveIndexSession {
 public:
  using Options = SessionOptions;

  explicit AdaptiveIndexSession(const DataGraph& graph,
                                SessionOptions options = {});

  /// Answers `query`, refining first if this observation just made it a
  /// FUP. Answers are always exact.
  QueryResult Query(const PathExpression& query);

  /// Answers without recording the observation (e.g. for monitoring).
  QueryResult Peek(const PathExpression& query);

  /// Forces refinement for `fup` regardless of frequency (then rebuilds
  /// the chooser and drops cached answers, as an automatic one does).
  void Refine(const PathExpression& fup);

  const MStarIndex& index() const { return index_; }
  const FupExtractor& fup_extractor() const { return fups_; }

  /// Total queries answered through Query().
  uint64_t queries_answered() const { return queries_answered_; }

  /// Cache hits served so far (0 unless options.cache_results).
  uint64_t cache_hits() const { return cache_hits_; }

  /// Cumulative cost of all Query() calls (the paper's metric).
  const QueryStats& cumulative_stats() const { return cumulative_stats_; }

 private:
  SessionOptions options_;
  MStarIndex index_;
  StrategyChooser chooser_;  ///< Over index_; rebuilt by Refine.
  DataEvaluator validator_;
  FupExtractor fups_;
  uint64_t queries_answered_ = 0;
  uint64_t cache_hits_ = 0;
  QueryStats cumulative_stats_;
  /// Memoized answers keyed by canonical query text, LRU-evicted; tagged
  /// with `epoch_`, which each refinement bumps.
  server::ShardedAnswerCache cache_;
  uint64_t epoch_ = 0;
};

}  // namespace mrx

#endif  // MRX_CORE_SESSION_H_
