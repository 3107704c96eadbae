#ifndef MRX_OBS_EXPOSITION_H_
#define MRX_OBS_EXPOSITION_H_

#include <ostream>

#include "obs/metrics.h"

namespace mrx::obs {

/// \brief Prometheus text exposition (format 0.0.4) of a snapshot.
///
/// Counters and gauges become one sample each; histograms become summaries:
///   # TYPE mrx_query_eval_ns summary
///   mrx_query_eval_ns{quantile="0.5"} 1234
///   mrx_query_eval_ns{quantile="0.95"} 5678
///   mrx_query_eval_ns{quantile="0.99"} 9012
///   mrx_query_eval_ns_sum 99999
///   mrx_query_eval_ns_count 42
/// Metric names are expected to already be Prometheus-legal (the registry's
/// naming convention guarantees it); samples appear sorted by name.
void WritePrometheusText(const MetricsSnapshot& snapshot, std::ostream& os);

/// \brief JSONL exposition: one self-describing JSON object per line, e.g.
///   {"kind":"counter","name":"mrx_queries_total","value":42}
///   {"kind":"gauge","name":"mrx_server_workers","value":4}
///   {"kind":"histogram","name":"...","count":9,"sum":123,"max":45,
///    "p50":10,"p95":30,"p99":44,"mean":13.67}
/// Line-oriented so snapshots can be appended to one file across a run and
/// grepped/parsed without a JSON-array reader.
void WriteJsonlSnapshot(const MetricsSnapshot& snapshot, std::ostream& os);

}  // namespace mrx::obs

#endif  // MRX_OBS_EXPOSITION_H_
