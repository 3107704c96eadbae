#include "obs/query_cost.h"

#include "obs/metrics.h"

namespace mrx::obs {

namespace cost_internal {
constinit thread_local QueryCostCounters* active = nullptr;
}  // namespace cost_internal

QueryCostScope::QueryCostScope(QueryCostCounters* counters)
    : counters_(counters), prev_(cost_internal::active) {
  cost_internal::active = counters;
}

QueryCostScope::~QueryCostScope() {
  cost_internal::active = prev_;
  if (counters_ == nullptr) return;
  // One flush per scope (per query), so the always-on registry totals cost
  // nothing on the per-element hot path. Handles are resolved once and
  // leaked with the registry.
  struct Handles {
    Counter* scanned;
    Counter* intersects;
    Counter* differences;
    Counter* checks;
  };
  static Handles* const h = new Handles{
      MetricsRegistry::Global().GetCounter(
          "mrx_cost_extent_elems_scanned_total"),
      MetricsRegistry::Global().GetCounter(
          "mrx_cost_extent_intersect_calls_total"),
      MetricsRegistry::Global().GetCounter(
          "mrx_cost_extent_difference_calls_total"),
      MetricsRegistry::Global().GetCounter(
          "mrx_cost_validation_checks_total")};
  if (counters_->extent_elems_scanned != 0) {
    h->scanned->Increment(counters_->extent_elems_scanned);
  }
  if (counters_->extent_intersect_calls != 0) {
    h->intersects->Increment(counters_->extent_intersect_calls);
  }
  if (counters_->extent_difference_calls != 0) {
    h->differences->Increment(counters_->extent_difference_calls);
  }
  if (counters_->validation_checks != 0) {
    h->checks->Increment(counters_->validation_checks);
  }
}

}  // namespace mrx::obs
