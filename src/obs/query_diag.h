#ifndef MRX_OBS_QUERY_DIAG_H_
#define MRX_OBS_QUERY_DIAG_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/query_cost.h"

namespace mrx::obs {

/// \brief The per-query EXPLAIN record: what the chooser considered and
/// estimated, what the evaluation physically cost, which resolution levels
/// of the M*(k) hierarchy it touched, and how the cache treated it.
///
/// Kept as plain strings and numbers (no index/server types) so the obs
/// layer stays at the bottom of the dependency stack; producers
/// (ConcurrentSession, the CLI's explain verbs) fill it in, and it renders
/// itself as one-line JSON (the slow-query log format) or as human-readable
/// text (`mrx query --explain`). Schema: docs/OBSERVABILITY.md.
struct QueryDiag {
  /// One strategy the chooser considered.
  struct Candidate {
    std::string strategy;
    double estimated_cost = 0;
    bool eligible = true;  ///< False when anchoring/axes rule it out.
    bool chosen = false;
  };

  std::string query;           ///< Printed path expression.
  uint64_t trace_id = 0;       ///< Span-trace exemplar id; 0 = untraced.
  uint64_t epoch = 0;          ///< Index epoch of the snapshot.
  uint64_t graph_version = 0;  ///< Mutation batches behind the snapshot.
  /// Index epoch the answer was computed on: `epoch` on a miss, the cache
  /// entry's on a hit. A hit from an earlier epoch (a refinement has
  /// published since, on the same graph version) carries no target ids.
  uint64_t answer_epoch = 0;
  bool cache_hit = false;
  bool precise = true;  ///< Answer certified without validation.

  std::string strategy;       ///< Strategy actually executed.
  double estimated_cost = 0;  ///< Chooser estimate for that strategy.
  std::vector<Candidate> considered;

  /// Actual §5-style costs (QueryStats plus the extent-algebra counters).
  uint64_t index_nodes_visited = 0;
  uint64_t data_nodes_validated = 0;
  uint64_t extent_elems_scanned = 0;
  uint64_t extent_intersect_calls = 0;
  uint64_t extent_difference_calls = 0;
  uint64_t validation_checks = 0;

  /// M*(k) components the evaluation used, ascending.
  std::vector<uint32_t> levels_touched;

  uint64_t eval_ns = 0;     ///< Index probe + validation window.
  uint64_t latency_ns = 0;  ///< Whole query() call, cache lookup included.
  uint64_t answer_size = 0;

  /// Copies the collected actual-cost counters (including the decoded
  /// levels-touched list) into this record.
  void SetCost(const QueryCostCounters& cost);

  /// One JSON object, no trailing newline — the slow-query log and
  /// `--json` renderings.
  void WriteJson(std::ostream& os) const;

  /// Multi-line human-readable rendering (`mrx query --explain`).
  void WriteText(std::ostream& os) const;
};

}  // namespace mrx::obs

#endif  // MRX_OBS_QUERY_DIAG_H_
