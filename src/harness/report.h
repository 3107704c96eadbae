#ifndef MRX_HARNESS_REPORT_H_
#define MRX_HARNESS_REPORT_H_

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "harness/experiment.h"

namespace mrx::harness {

/// \brief Prints the series behind a cost-vs-size figure pair (e.g.
/// Figures 10+11): one row per index with node count, edge count and the
/// average per-query cost split into its two components.
void PrintCostVsSize(std::ostream& os, const std::string& title,
                     const std::vector<IndexRunResult>& runs);

/// \brief Prints the series behind a growth figure pair (e.g. Figures
/// 14+15): one row per sample point, node and edge counts per index.
/// All runs must share the same sampling schedule.
void PrintGrowth(std::ostream& os, const std::string& title,
                 const std::vector<IndexRunResult>& runs);

/// \brief Prints a query-length histogram (Figures 8/9).
void PrintHistogram(std::ostream& os, const std::string& title,
                    const std::vector<double>& fractions);

/// \brief One-line dataset summary (nodes/edges/labels/references).
void PrintDatasetSummary(std::ostream& os, const std::string& name,
                         const DataGraph& graph);

/// \brief Writes one machine-readable bench-trajectory record:
///   {"bench":"scale_build","metrics":{"xmark_500k_serial_ms":294.8,...}}
/// bench_scale_build emits this as BENCH_scale_build.json (and
/// bench_mutation as BENCH_mutation.json) so the perf trajectory is
/// diffable across changes (CI uploads it as an artifact). Non-finite
/// values are serialized as 0 to keep the record valid JSON. Metrics appear
/// in the given order.
void WriteBenchJson(
    std::ostream& os, const std::string& bench_name,
    const std::vector<std::pair<std::string, double>>& metrics);

}  // namespace mrx::harness

#endif  // MRX_HARNESS_REPORT_H_
