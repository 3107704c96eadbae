#ifndef MRX_OBS_SLOW_QUERY_LOG_H_
#define MRX_OBS_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>

#include "obs/query_diag.h"

namespace mrx::obs {

struct SlowQueryLogOptions {
  /// Retained records; the oldest is dropped (and counted) when full.
  size_t max_records = 1024;
};

/// \brief A bounded log of EXPLAIN records for queries that crossed the
/// slow-query latency threshold (ConcurrentSessionOptions::slow_query_ns).
///
/// Records are serialized to one-line JSON at append time (the producer's
/// QueryDiag is transient) and kept in a drop-oldest deque, so a burst of
/// slow queries costs bounded memory and the newest evidence survives.
/// Appends also bump the process-global `mrx_slow_queries_total` counter.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(SlowQueryLogOptions options = {});

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Serializes `diag` and appends it. Thread-safe.
  void Append(const QueryDiag& diag);

  /// Writes the retained records, oldest first, one JSON object per line.
  void WriteJsonl(std::ostream& os) const;

  size_t size() const;

  /// Records ever appended / dropped by the bound.
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Trace id of the most recent slow query (0 if none was traced) — the
  /// exemplar linking the log to the span trace.
  uint64_t last_trace_id() const {
    return last_trace_id_.load(std::memory_order_relaxed);
  }

 private:
  const SlowQueryLogOptions options_;
  mutable std::mutex mu_;
  std::deque<std::string> records_;
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> dropped_{0};
  std::atomic<uint64_t> last_trace_id_{0};
};

}  // namespace mrx::obs

#endif  // MRX_OBS_SLOW_QUERY_LOG_H_
