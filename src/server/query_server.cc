#include "server/query_server.h"

#include <algorithm>
#include <future>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mrx::server {
namespace {

/// Process-global server gauges/counters, shared by every QueryServer in
/// the process (in practice one; concurrent bench servers would
/// last-writer-win on the gauges, which telemetry tolerates).
struct ServerMetrics {
  obs::Gauge* queue_depth = obs::MetricsRegistry::Global().GetGauge(
      "mrx_server_queue_depth");
  obs::Gauge* workers =
      obs::MetricsRegistry::Global().GetGauge("mrx_server_workers");
  obs::Counter* rejected = obs::MetricsRegistry::Global().GetCounter(
      "mrx_server_rejected_total");
  obs::Counter* busy_ns = obs::MetricsRegistry::Global().GetCounter(
      "mrx_server_worker_busy_ns_total");
};

ServerMetrics& Metrics() {
  static ServerMetrics* const metrics = new ServerMetrics();
  return *metrics;
}

}  // namespace

QueryServer::QueryServer(const DataGraph& graph, QueryServerOptions options)
    : options_(options),
      session_(graph, options.session),
      queue_(std::max<size_t>(1, options.queue_capacity)) {
  const size_t n = std::max<size_t>(1, options_.num_workers);
  worker_stats_.reserve(n);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    worker_stats_.push_back(std::make_unique<WorkerStats>());
    workers_.emplace_back(
        [this, stats = worker_stats_.back().get()] { WorkerLoop(stats); });
  }
  if (options_.session.watchdog != nullptr) {
    // Queue-age probe: time since a worker last dequeued, while requests
    // are waiting. Catches a wedged worker pool (queue non-empty, nobody
    // draining) that per-activity monitors cannot see.
    last_dequeue_ns_.store(obs::MonotonicNowNs(), std::memory_order_relaxed);
    queue_probe_id_ = options_.session.watchdog->RegisterProbe(
        "request_queue", [this]() -> uint64_t {
          if (queue_.size() == 0) return 0;
          const uint64_t last =
              last_dequeue_ns_.load(std::memory_order_relaxed);
          const uint64_t now = obs::MonotonicNowNs();
          return now > last ? now - last : 0;
        });
  }
}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::Submit(PathExpression query, Callback done) {
  Request request{std::move(query), std::move(done), Clock::now()};
  if (!queue_.TryPush(request)) {
    rejected_.fetch_add(1, std::memory_order_relaxed);
    Metrics().rejected->Increment();
    return Status::Unavailable(queue_.closed()
                                   ? "server is shutting down"
                                   : "request queue full; retry later");
  }
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kQueryAdmit,
                                       queue_.size());
  return Status::Ok();
}

Result<QueryResult> QueryServer::Execute(const PathExpression& query) {
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> answer = promise->get_future();
  Request request{query,
                  [promise](QueryResult&& r) {
                    promise->set_value(std::move(r));
                  },
                  Clock::now()};
  if (!queue_.Push(std::move(request))) {
    return Status::Unavailable("server is shutting down");
  }
  return answer.get();
}

void QueryServer::WorkerLoop(WorkerStats* stats) {
  for (;;) {
    std::optional<Request> request = queue_.Pop();
    if (!request.has_value()) return;  // Closed and drained.
    last_dequeue_ns_.store(obs::MonotonicNowNs(), std::memory_order_relaxed);
    const auto processing_start = Clock::now();
    QueryResult result = session_.Query(request->query);
    const auto now = Clock::now();
    const uint64_t busy_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            now - processing_start)
            .count());
    const auto elapsed = now - request->enqueued_at;
    {
      std::lock_guard<std::mutex> lock(stats->mu);
      ++stats->queries;
      stats->busy_ns += busy_ns;
      stats->latency_ns.Record(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
              .count()));
    }
    Metrics().busy_ns->Increment(busy_ns);
    // Completion is signalled only after the stats are recorded: a caller
    // unblocked by done() may Snapshot() immediately and must see this
    // query in the latency histogram.
    if (request->done) request->done(std::move(result));
  }
}

void QueryServer::Shutdown() {
  if (shutdown_.exchange(true)) {
    return;  // Already shut down (workers joined exactly once).
  }
  if (queue_probe_id_ != 0 && options_.session.watchdog != nullptr) {
    // Unregister before the workers stop draining, or an idle shutdown
    // with queued rejects would read as a stall.
    options_.session.watchdog->UnregisterProbe(queue_probe_id_);
  }
  queue_.Close();
  for (std::thread& t : workers_) t.join();
}

ServerStats QueryServer::Snapshot() const {
  ServerStats stats;
  stats.num_workers = workers_.size();
  stats.queue_depth = queue_.size();
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.uptime_seconds =
      std::chrono::duration<double>(Clock::now() - started_at_).count();
  stats.worker_busy_ns.reserve(worker_stats_.size());
  for (const auto& ws : worker_stats_) {
    std::lock_guard<std::mutex> lock(ws->mu);
    stats.latency.Merge(ws->latency_ns);
    stats.worker_busy_ns.push_back(ws->busy_ns);
  }
  // The pull-style gauges refresh whenever someone looks (snapshots are
  // how this server is scraped; there is no background ticker thread).
  Metrics().queue_depth->Set(static_cast<int64_t>(stats.queue_depth));
  Metrics().workers->Set(static_cast<int64_t>(stats.num_workers));
  stats.queries_answered = session_.queries_answered();
  stats.cache_hits = session_.cache_hits();
  stats.cumulative_cost = session_.cumulative_stats();
  stats.refinements_applied = session_.refinements_applied();
  stats.index_publications = session_.index_publications();
  stats.observations_pending = session_.observations_pending();
  stats.cache_entries = session_.cache_entries();
  stats.index_epoch = session_.index_epoch();
  stats.graph_version = session_.graph_version();
  stats.slow_queries = session_.slow_queries();
  stats.last_slow_trace_id = session_.last_slow_trace_id();
  stats.estimated_cost_units = session_.estimated_cost_units();
  return stats;
}

}  // namespace mrx::server
