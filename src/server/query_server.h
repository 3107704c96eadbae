#ifndef MRX_SERVER_QUERY_SERVER_H_
#define MRX_SERVER_QUERY_SERVER_H_

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "server/bounded_queue.h"
#include "server/concurrent_session.h"
#include "util/result.h"

namespace mrx::server {

struct QueryServerOptions {
  /// Worker threads draining the request queue.
  size_t num_workers = 4;

  /// Bounded MPMC request-queue capacity; Submit rejects with
  /// kUnavailable once this many requests are waiting (backpressure).
  size_t queue_capacity = 1024;

  ConcurrentSessionOptions session;
};

/// \brief A fixed-size worker pool serving path-expression queries from a
/// bounded MPMC queue over one shared ConcurrentSession.
///
/// Clients Submit() a query with a completion callback (invoked on a
/// worker thread), or use the blocking Execute() convenience. When the
/// queue is full, Submit fails fast with Status::Unavailable — the
/// backpressure contract; callers decide whether to retry, shed, or block
/// (Execute blocks). Shutdown() stops intake, finishes every accepted
/// request, and joins the workers; the destructor calls it.
///
/// The server's own telemetry is registry metrics (`mrx_server_workers`,
/// `mrx_server_rejected_total`, `mrx_server_worker_busy_ns_total`); query
/// counts, cache hits, epochs and cost live on session().
class QueryServer {
 public:
  /// Receives the answer as an rvalue: a callback may move it on (Execute
  /// moves it into its promise) instead of copying it.
  using Callback = std::function<void(QueryResult&&)>;

  explicit QueryServer(const DataGraph& graph, QueryServerOptions options = {});
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Enqueues `query`; `done` runs on a worker thread once answered.
  /// Fails with kUnavailable if the queue is full or the server is
  /// shutting down (the callback is then never invoked).
  Status Submit(PathExpression query, Callback done);

  /// Blocking convenience for closed-loop clients: waits for queue space,
  /// then for the answer. Fails only if the server is shutting down.
  Result<QueryResult> Execute(const PathExpression& query);

  /// Stops intake, completes accepted requests, joins workers. Idempotent.
  void Shutdown();

  ConcurrentSession& session() { return session_; }
  const QueryServerOptions& options() const { return options_; }

 private:
  struct Request {
    PathExpression query;
    Callback done;
  };

  void WorkerLoop();

  const QueryServerOptions options_;
  ConcurrentSession session_;
  BoundedQueue<Request> queue_;
  /// Monotonic time of the last worker dequeue; with a non-empty queue its
  /// age is the watchdog's queue-stall signal.
  std::atomic<uint64_t> last_dequeue_ns_{0};
  uint64_t queue_probe_id_ = 0;  ///< Watchdog probe handle; 0 = none.
  std::vector<std::thread> workers_;
  std::atomic<bool> shutdown_{false};
};

}  // namespace mrx::server

#endif  // MRX_SERVER_QUERY_SERVER_H_
