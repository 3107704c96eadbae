#ifndef MRX_OBS_QUERY_COST_H_
#define MRX_OBS_QUERY_COST_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mrx::obs {

/// \brief Actual per-query cost counters in the spirit of the paper's §5
/// metrics: what the evaluation *physically did*, as opposed to the index
/// node visits the StrategyChooser *estimated*. Collected by the inline
/// hooks below, which the extent algebra (`index/extent_ops.h`), the M*(k)
/// query strategies, and the data-graph validator call unconditionally —
/// each hook is one thread-local load plus a branch, so the counters are
/// cheap enough to leave always-on (docs/OBSERVABILITY.md).
struct QueryCostCounters {
  /// Extent elements touched while collecting answers, descending through
  /// the hierarchy, or feeding the intersection/difference kernels.
  uint64_t extent_elems_scanned = 0;

  /// Calls into the shared extent-algebra kernels.
  uint64_t extent_intersect_calls = 0;
  uint64_t extent_difference_calls = 0;

  /// Validation-oracle calls: one DataEvaluator::Validate per target
  /// index node whose extent needed validation, or one HasIncomingPath.
  uint64_t validation_checks = 0;

  /// Bit i set = M*(k) component min(i, 31) was touched by the evaluation
  /// (which resolution levels of the multiresolution hierarchy the query
  /// actually used).
  uint32_t levels_touched_mask = 0;

  /// The touched component indices, decoded from levels_touched_mask in
  /// ascending order.
  std::vector<uint32_t> LevelsTouched() const {
    std::vector<uint32_t> out;
    for (uint32_t i = 0; i < 32; ++i) {
      if (levels_touched_mask & (1u << i)) out.push_back(i);
    }
    return out;
  }
};

namespace cost_internal {
/// The calling thread's active collector; null = counting off. Installed
/// by QueryCostScope only. `constinit` tells every includer the variable
/// is statically initialized, so reads are direct TLS loads instead of
/// calls through a TLS init wrapper (whose weak, null reference UBSan
/// reports as a null-pointer load).
extern constinit thread_local QueryCostCounters* active;
}  // namespace cost_internal

/// \brief RAII: installs `counters` as the calling thread's cost collector
/// for the enclosed evaluation. Scopes nest (the previous collector is
/// restored on destruction; an inner scope's counts are *not* added to the
/// outer one). On destruction the collected counts are also flushed into
/// the process-global `mrx_cost_*_total` registry counters, so process
/// totals exist even when nobody keeps the per-query struct.
class QueryCostScope {
 public:
  explicit QueryCostScope(QueryCostCounters* counters);
  ~QueryCostScope();

  QueryCostScope(const QueryCostScope&) = delete;
  QueryCostScope& operator=(const QueryCostScope&) = delete;

 private:
  QueryCostCounters* counters_;
  QueryCostCounters* prev_;
};

/// `n` extent elements were read (answer collection, hierarchy descent,
/// prefilter mapping).
inline void CountExtentScan(uint64_t n) {
  if (QueryCostCounters* c = cost_internal::active) {
    c->extent_elems_scanned += n;
  }
}

/// One Intersect kernel call that read `scanned` input elements.
inline void CountIntersect(uint64_t scanned) {
  if (QueryCostCounters* c = cost_internal::active) {
    ++c->extent_intersect_calls;
    c->extent_elems_scanned += scanned;
  }
}

/// One Difference kernel call that read `scanned` input elements.
inline void CountDifference(uint64_t scanned) {
  if (QueryCostCounters* c = cost_internal::active) {
    ++c->extent_difference_calls;
    c->extent_elems_scanned += scanned;
  }
}

/// One validation-oracle call (DataEvaluator::Validate or
/// HasIncomingPath).
inline void CountValidationCheck() {
  if (QueryCostCounters* c = cost_internal::active) ++c->validation_checks;
}

/// Component `ci` of the M*(k) hierarchy was used by the evaluation.
inline void CountComponentTouched(size_t ci) {
  if (QueryCostCounters* c = cost_internal::active) {
    c->levels_touched_mask |= 1u << (ci < 31 ? ci : 31);
  }
}

}  // namespace mrx::obs

#endif  // MRX_OBS_QUERY_COST_H_
