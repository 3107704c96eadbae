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
/// the process (in practice one; concurrent servers would last-writer-win
/// on the workers gauge, which telemetry tolerates).
struct ServerMetrics {
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
  Metrics().workers->Set(static_cast<int64_t>(n));
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
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
  Request request{std::move(query), std::move(done)};
  size_t depth = 0;
  if (!queue_.TryPush(request, &depth)) {
    Metrics().rejected->Increment();
    return Status::Unavailable(queue_.closed()
                                   ? "server is shutting down"
                                   : "request queue full; retry later");
  }
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kQueryAdmit,
                                       depth);
  return Status::Ok();
}

Result<QueryResult> QueryServer::Execute(const PathExpression& query) {
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> answer = promise->get_future();
  Request request{query, [promise](QueryResult&& r) {
                    promise->set_value(std::move(r));
                  }};
  size_t depth = 0;
  if (!queue_.Push(std::move(request), &depth)) {
    return Status::Unavailable("server is shutting down");
  }
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kQueryAdmit,
                                       depth);
  return answer.get();
}

void QueryServer::WorkerLoop() {
  for (;;) {
    std::optional<Request> request = queue_.Pop();
    if (!request.has_value()) return;  // Closed and drained.
    const uint64_t dequeued_ns = obs::MonotonicNowNs();
    last_dequeue_ns_.store(dequeued_ns, std::memory_order_relaxed);
    QueryResult result = session_.Query(request->query);
    Metrics().busy_ns->Increment(obs::MonotonicNowNs() - dequeued_ns);
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

}  // namespace mrx::server
