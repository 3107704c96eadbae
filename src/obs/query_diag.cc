#include "obs/query_diag.h"

#include <cstdio>

#include "obs/trace.h"

namespace mrx::obs {
namespace {

/// Doubles rendered the strict-JSON way: finite, plain decimal/exponent
/// form ("%.*g" never emits inf/nan for the cost estimates, which are
/// finite sums of row sizes).
void AppendJsonDouble(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  os << buf;
}

}  // namespace

void QueryDiag::SetCost(const QueryCostCounters& cost) {
  extent_elems_scanned = cost.extent_elems_scanned;
  extent_intersect_calls = cost.extent_intersect_calls;
  extent_difference_calls = cost.extent_difference_calls;
  validation_checks = cost.validation_checks;
  levels_touched = cost.LevelsTouched();
}

void QueryDiag::WriteJson(std::ostream& os) const {
  os << "{\"query\":";
  AppendJsonString(os, query);
  os << ",\"strategy\":";
  AppendJsonString(os, strategy);
  os << ",\"estimated_cost\":";
  AppendJsonDouble(os, estimated_cost);
  os << ",\"cache_hit\":" << (cache_hit ? "true" : "false")
     << ",\"precise\":" << (precise ? "true" : "false")
     << ",\"epoch\":" << epoch << ",\"graph_version\":" << graph_version
     << ",\"answer_epoch\":" << answer_epoch << ",\"trace_id\":" << trace_id;
  if (!considered.empty()) {
    os << ",\"considered\":[";
    for (size_t i = 0; i < considered.size(); ++i) {
      if (i > 0) os << ',';
      const Candidate& c = considered[i];
      os << "{\"strategy\":";
      AppendJsonString(os, c.strategy);
      os << ",\"estimated_cost\":";
      AppendJsonDouble(os, c.estimated_cost);
      os << ",\"eligible\":" << (c.eligible ? "true" : "false")
         << ",\"chosen\":" << (c.chosen ? "true" : "false") << '}';
    }
    os << ']';
  }
  os << ",\"cost\":{\"index_nodes_visited\":" << index_nodes_visited
     << ",\"data_nodes_validated\":" << data_nodes_validated
     << ",\"extent_elems_scanned\":" << extent_elems_scanned
     << ",\"extent_intersect_calls\":" << extent_intersect_calls
     << ",\"extent_difference_calls\":" << extent_difference_calls
     << ",\"validation_checks\":" << validation_checks << '}';
  os << ",\"levels_touched\":[";
  for (size_t i = 0; i < levels_touched.size(); ++i) {
    if (i > 0) os << ',';
    os << levels_touched[i];
  }
  os << "],\"eval_ns\":" << eval_ns << ",\"latency_ns\":" << latency_ns
     << ",\"answer_size\":" << answer_size << '}';
}

void QueryDiag::WriteText(std::ostream& os) const {
  os << "query: " << query << "\n";
  os << "strategy: " << strategy << " (estimated cost ";
  AppendJsonDouble(os, estimated_cost);
  os << " index-node visits)\n";
  os << "cache: " << (cache_hit ? "hit" : "miss")
     << "  precise: " << (precise ? "yes" : "no") << "  epoch: " << epoch
     << "  graph_version: " << graph_version
     << "  answer_epoch: " << answer_epoch << "\n";
  if (!considered.empty()) {
    os << "considered:\n";
    for (const Candidate& c : considered) {
      os << "  " << c.strategy;
      for (size_t pad = c.strategy.size(); pad < 9; ++pad) os << ' ';
      os << " est ";
      AppendJsonDouble(os, c.estimated_cost);
      if (!c.eligible) os << "  (ineligible)";
      if (c.chosen) os << "  <- chosen";
      os << "\n";
    }
  }
  os << "actual cost: index_nodes_visited=" << index_nodes_visited
     << " extent_elems_scanned=" << extent_elems_scanned
     << " data_nodes_validated=" << data_nodes_validated << "\n";
  os << "             intersect_calls=" << extent_intersect_calls
     << " difference_calls=" << extent_difference_calls
     << " validation_checks=" << validation_checks << "\n";
  os << "levels touched:";
  if (levels_touched.empty()) {
    os << " none";
  } else {
    for (uint32_t l : levels_touched) os << " I" << l;
  }
  os << "\n";
  os << "timing: eval=" << eval_ns / 1000 << "us latency="
     << latency_ns / 1000 << "us\n";
  os << "answer: " << answer_size << " nodes";
  if (trace_id != 0) os << "  (trace id " << trace_id << ")";
  os << "\n";
}

}  // namespace mrx::obs
