#ifndef MRX_SERVER_CONCURRENT_SESSION_H_
#define MRX_SERVER_CONCURRENT_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/strategy.h"
#include "index/strategy_chooser.h"
#include "mutate/mutable_graph.h"
#include "mutate/mutation.h"
#include "mutate/versioned_handle.h"
#include "obs/metrics.h"
#include "obs/query_diag.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "obs/watchdog.h"
#include "server/answer_cache.h"
#include "util/thread_pool.h"
#include "workload/fup_extractor.h"

namespace mrx::fault {

/// \brief A test-only pause point: an armed flag that a thread can wait
/// on, and whose release wakes the waiter at once.
class PausePoint {
 public:
  void Arm() { armed_.store(true, std::memory_order_relaxed); }

  /// Disarms the point and wakes every thread held on it.
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      armed_.store(false, std::memory_order_relaxed);
    }
    cv_.notify_all();
  }

  /// One relaxed load: all a disarmed point costs the code it guards.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Blocks while armed, until Release() or until Stop(stop).
  void Wait(const std::atomic<bool>& stop) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return !armed() || stop.load(); });
  }

  /// Sets `stop` under the point's mutex and wakes every held thread, so
  /// one blocked in Wait(stop) returns.
  void Stop(std::atomic<bool>& stop) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop.store(true);
    }
    cv_.notify_all();
  }

 private:
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::condition_variable cv_;
};

/// The publish-first window's pause point: while armed, a ConcurrentSession
/// refiner that owes a FUP replay (a mutation has published its coarse
/// index) holds still — it neither replays nor drains its inbox — so
/// readers stay on the coarse index until Release(). Destroying the session
/// releases its refiner at once, without the replay. Tests and `mrx check
/// --mode mutate|mutate-stress` arm it; never arm it elsewhere.
inline PausePoint hold_replay;

}  // namespace mrx::fault

namespace mrx::server {

/// Options for ConcurrentSession.
struct ConcurrentSessionOptions {
  /// Observations before a query becomes a FUP and triggers background
  /// refinement.
  size_t refine_after = 2;

  /// Evaluation strategy; kAuto uses a StrategyChooser rebuilt at each
  /// index publication.
  SessionOptions::Strategy strategy = SessionOptions::Strategy::kTopDown;

  /// Memoize answers in the sharded LRU cache.
  bool cache_results = true;

  /// Total answer-cache capacity across shards.
  size_t cache_capacity = 4096;

  /// Number of cache shards (rounded up to a power of two). More shards =
  /// less lock contention between workers; 0 picks a default.
  size_t cache_shards = 16;

  /// FUP-observation inbox bound. The read path never blocks on the
  /// refiner: observations beyond this backlog are dropped (they are
  /// statistics, not work items — a hot query will be observed again).
  size_t inbox_capacity = 1 << 16;

  /// Worker threads for the refiner's batch target evaluation (refinement
  /// and the FUP replay after a mutation; see docs/PERFORMANCE.md). 0 or 1
  /// keeps the refiner fully serial. The refined index is byte-identical
  /// for every value — parallelism changes publish latency, not results.
  size_t refine_threads = 1;

  /// Span tracer for per-query phase spans (cache lookup → index probe →
  /// data validation) and refinement telemetry. nullptr disables tracing;
  /// metrics (the process-global registry) are always on. The recorder
  /// must outlive the session. See docs/OBSERVABILITY.md.
  obs::TraceRecorder* tracer = nullptr;

  /// Slow-query capture threshold in nanoseconds; 0 disables. A query
  /// whose wall time crosses it gets a forced (sampler-bypassing) trace
  /// and a full explain record appended to `slow_query_log`. See
  /// docs/OBSERVABILITY.md "EXPLAIN & diagnostics".
  uint64_t slow_query_ns = 0;

  /// Sink for slow-query explain records; nullptr keeps capture purely in
  /// counters. Must outlive the session.
  obs::SlowQueryLog* slow_query_log = nullptr;

  /// Stall watchdog to register the refiner-publish and mutation-apply
  /// activities with (plus any caller-side probes). nullptr disables
  /// monitoring. Must outlive the session.
  obs::StallWatchdog* watchdog = nullptr;
};

/// \brief The paper's Figure 5 closed loop — query processor, FUP
/// processor, refine processor — as a concurrent service. It is the
/// library's one implementation of that loop: QueryServer, `mrx diag`,
/// perfbench and `mrx check` all serve through it.
///
///   1. initialize the index with k = 0 everywhere (A(0));
///   2. answer incoming queries on the index, validating when imprecise;
///   3. extract FUPs from the query stream;
///   4. refine the index to support each new FUP;
///   5. repeat.
///
/// Threading model (see docs/SERVER.md for the full protocol):
///  - Any number of reader threads call Query()/Peek() concurrently. Each
///    reader acquires the current VersionSnapshot — the (graph, index,
///    chooser, validator pool) tuple published as one immutable unit — and
///    evaluates entirely against it, so a publication never tears a
///    reader's view: a query that began on version N finishes on version N
///    with exact answers for N, even while N+1 publishes.
///  - Query() records its expression in a bounded inbox (mutex + swap). A
///    single background refinement worker drains the inbox and runs the
///    FUP extractor; when it promotes something, it refines a clone of the
///    published M*(k)-index and publishes the clone as a fresh snapshot.
///    Readers therefore never observe a half-refined hierarchy, and
///    refinement cost never rides on the query path.
///  - ApplyMutations() publishes first and refines after. It steps the
///    session's LiveGraph (src/mutate/) to the next graph version, builds
///    the coarse A(0)-based M*(k)-index over it, publishes that, and — when
///    FUPs have been promoted — records that the refiner owes the version a
///    replay. The refiner then builds a fresh index over the current graph,
///    replays every FUP in promotion order (FUPs promoted meanwhile fold
///    in, and mutations that land before it runs share one replay) and
///    publishes, so after DrainRefinements() the served index is exactly a
///    fresh session on the new graph that promoted the same FUPs. Between
///    the two publishes answers stay exact: validation covers every
///    under-refined node. Mutations serialize with the refiner on one
///    writer mutex; readers are never blocked beyond the snapshot-pointer
///    swap.
///  - Every publication bumps the index epoch. The answer cache is tagged
///    with the graph version instead, so only a mutation invalidates it:
///    racing inserts tagged with the old version are dropped, and a lookup
///    hits only entries computed on the reader's own graph version (the
///    swap precedes the invalidation). A refinement publish keeps the
///    cache — refinement changes no answer — and a hit on an entry from
///    another index epoch returns no target ids.
///
/// Answers are always exact for the snapshot they were computed on:
/// under-refined index nodes are validated against that snapshot's data
/// graph. A caller that wants the refined index now (not just exact
/// answers) calls DrainRefinements() and reads index_snapshot().
class ConcurrentSession {
 public:
  /// What one ApplyMutations call did.
  struct MutationReceipt {
    uint64_t version = 0;           ///< Graph version after the batch.
    std::vector<NodeId> new_nodes;  ///< Appended nodes, new compact ids.
    /// Index epoch of the (coarse) publication that made the new version
    /// visible to readers.
    uint64_t epoch = 0;
  };

  /// A query answer tagged with the snapshot it was computed on.
  struct VersionedAnswer {
    QueryResult result;
    uint64_t epoch = 0;          ///< Index epoch of the snapshot.
    uint64_t graph_version = 0;  ///< Mutation batches behind the snapshot.
  };

  explicit ConcurrentSession(const DataGraph& graph,
                             ConcurrentSessionOptions options = {});
  ~ConcurrentSession();

  ConcurrentSession(const ConcurrentSession&) = delete;
  ConcurrentSession& operator=(const ConcurrentSession&) = delete;

  /// Answers `query` on the currently published snapshot and records the
  /// observation for background FUP extraction. Thread-safe.
  QueryResult Query(const PathExpression& query);

  /// Query() plus the epoch/version of the snapshot that answered — the
  /// handle concurrent mutators and checkers use to reason about which
  /// graph version an answer is exact for.
  VersionedAnswer QueryVersioned(const PathExpression& query);

  /// Answers without recording the observation or touching the cache.
  QueryResult Peek(const PathExpression& query);

  /// Query() with a full EXPLAIN record: strategy decision table with
  /// estimated costs, actual §5-style cost counters, resolution levels
  /// touched, cache outcome, and phase timings. `diag` must be non-null;
  /// the answer is identical to Query()'s. Thread-safe.
  QueryResult QueryExplained(const PathExpression& query,
                             obs::QueryDiag* diag);

  /// Applies `batch` to the data graph atomically and publishes a new
  /// snapshot over the coarse (A(0)-based) index of the new graph; the
  /// refiner replays the promoted FUPs afterwards and publishes again.
  /// Node ids in `batch` refer to graph_snapshot()'s compact id space at
  /// version graph_version(). On failure, or for an empty batch, nothing
  /// changes and readers keep the current snapshot and cache. Thread-safe; mutators serialize with each other
  /// and the refiner.
  Result<MutationReceipt> ApplyMutations(const mutate::MutationBatch& batch);

  /// Blocks until every observation recorded so far has been processed by
  /// the refinement worker, every owed FUP replay has published, and any
  /// resulting index publication is visible. Tests and benchmarks use this
  /// to reach a deterministic index state. Never returns while
  /// fault::hold_replay holds an owed replay.
  void DrainRefinements();

  uint64_t queries_answered() const {
    return queries_answered_.load(std::memory_order_relaxed);
  }
  uint64_t cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  uint64_t refinements_applied() const {
    return refinements_applied_.load(std::memory_order_relaxed);
  }
  uint64_t index_publications() const {
    return publications_.load(std::memory_order_relaxed);
  }

  /// Mutation batches applied so far (== graph_version()).
  uint64_t mutation_batches() const { return graph_version(); }

  /// Queries that crossed options.slow_query_ns (0 when capture is off).
  uint64_t slow_queries() const {
    return slow_queries_.load(std::memory_order_relaxed);
  }

  /// Trace id of the most recent slow-query capture (0 if none, or if the
  /// session has no tracer): the exemplar `mrx diag` reports in diag.json.
  uint64_t last_slow_trace_id() const {
    return last_slow_trace_id_.load(std::memory_order_relaxed);
  }

  /// Cumulative chooser-estimated cost (index-node-visit units) across all
  /// evaluated (non-cache-hit) queries — the estimate side of the
  /// est-vs-actual cost ratio (`est_cost_units` in `mrx diag`'s diag.json).
  uint64_t estimated_cost_units() const {
    return est_cost_units_.load(std::memory_order_relaxed);
  }

  /// Observations recorded but not yet processed by the refiner.
  uint64_t observations_pending() const;

  /// Cumulative paper-metric cost of all Query() calls.
  QueryStats cumulative_stats() const;

  size_t cache_entries() const { return cache_.size(); }

  /// Per-shard answer-cache telemetry (hits/misses/evictions/stale drops);
  /// `mrx check --mode mutate-stress` sums stale_drops to show the
  /// version guard fired rather than silently admitting stale entries.
  std::vector<ShardedAnswerCache::ShardStats> cache_shard_stats() const {
    return cache_.PerShardStats();
  }

  /// Epoch of the currently published snapshot (starts at 0, bumped per
  /// publication — refinement, mutation or replay).
  uint64_t index_epoch() const;

  /// Graph version of the currently published snapshot (mutation batches
  /// applied; 0 until the first ApplyMutations). Read from the snapshot
  /// itself, so it never runs ahead of graph_snapshot().
  uint64_t graph_version() const;

  /// Component count of the currently published index.
  size_t published_components() const;

  /// The *seed* graph this session was constructed over (version 0). Kept
  /// for symbol-table access and pre-mutation callers; after
  /// ApplyMutations the current graph is graph_snapshot().
  const DataGraph& graph() const { return graph_; }

  /// The currently published graph version, kept alive by the returned
  /// pointer even across later publications.
  std::shared_ptr<const DataGraph> graph_snapshot() const {
    return handle_.Acquire()->graph_ptr();
  }

  /// The currently published index, kept alive (with the graph it is
  /// over) by the returned pointer even across later publications.
  std::shared_ptr<const MStarIndex> index_snapshot() const {
    std::shared_ptr<const mutate::VersionSnapshot> snapshot =
        handle_.Acquire();
    return {snapshot, &snapshot->index()};
  }

 private:
  /// Handles into the process-global MetricsRegistry, resolved once at
  /// construction (metric names: docs/OBSERVABILITY.md). Recording through
  /// them is wait-free (counters/gauges) or stripe-local (histograms).
  struct SessionMetrics {
    obs::Counter* queries_total;
    obs::Histogram* cache_lookup_ns;
    obs::Histogram* eval_ns;
    obs::Histogram* index_probe_ns;
    obs::Histogram* validation_ns;
    obs::Counter* fup_promotions;
    obs::Counter* partition_splits;
    obs::Counter* observations_dropped;
    obs::Histogram* publish_ns;
    obs::Gauge* index_epoch;
    obs::Gauge* index_components;
    obs::Gauge* index_physical_nodes;
    obs::Gauge* index_physical_edges;
    obs::Gauge* inbox_backlog;
    obs::Gauge* pool_threads;
    obs::Gauge* pool_jobs;
    obs::Gauge* pool_busy_ns;

    SessionMetrics();
  };

  QueryResult EvaluateOn(const mutate::VersionSnapshot& snapshot,
                         const PathExpression& query, DataEvaluator* validator,
                         MStarQueryStrategy* used) const;
  VersionedAnswer QueryInternal(const PathExpression& query,
                                obs::QueryDiag* diag);

  /// Slow-query bookkeeping: counter bump, forced (sampler-bypassing)
  /// trace whose id lands in diag->trace_id, kSlowQuery flight event, and
  /// the slow-log append. `eval_start_ns` == 0 means the query never
  /// evaluated (cache hit), so no phase children are emitted.
  void CaptureSlowQuery(obs::QueryDiag* diag, uint64_t begin_ns,
                        uint64_t eval_start_ns, uint64_t probe_ns,
                        uint64_t validation_ns);
  void RecordObservation(const PathExpression& query);
  void RefineLoop();

  /// Publishes `index` over `graph` at graph version `version` as a fresh
  /// snapshot and refreshes the index-size gauges, handing their physical
  /// size to `physical_out` when non-null. Leaves the answer cache alone:
  /// a caller that publishes a new graph version invalidates it. Caller
  /// holds refine_mu_.
  std::shared_ptr<mutate::VersionSnapshot> PublishLocked(
      MStarIndex index, std::shared_ptr<const DataGraph> graph,
      uint64_t version, MStarIndex::PhysicalSize* physical_out = nullptr);

  const DataGraph& graph_;
  const ConcurrentSessionOptions options_;

  // --- Read path ---------------------------------------------------------
  /// The publication point. Readers acquire the current snapshot (a
  /// shared-lock pointer copy) and run entirely against it.
  mutate::VersionedIndexHandle handle_;

  ShardedAnswerCache cache_;

  std::atomic<uint64_t> queries_answered_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> stat_index_nodes_{0};
  std::atomic<uint64_t> stat_data_nodes_{0};
  std::atomic<uint64_t> slow_queries_{0};
  std::atomic<uint64_t> last_slow_trace_id_{0};
  std::atomic<uint64_t> est_cost_units_{0};

  // --- Refine path -------------------------------------------------------
  mutable std::mutex inbox_mu_;
  std::condition_variable inbox_cv_;   ///< Signals the refiner.
  std::condition_variable drained_cv_; ///< Signals DrainRefinements waiters.
  std::vector<PathExpression> inbox_;
  uint64_t submitted_ = 0;  ///< Observations accepted into the inbox.
  uint64_t processed_ = 0;  ///< Observations fully handled (post-publish).
  /// A mutation published a coarse index and the refiner has not replayed
  /// the FUPs over it yet. Set by ApplyMutations and cleared by the
  /// refiner's replay, both under refine_mu_ as well.
  bool replay_owed_ = false;
  /// Set under inbox_mu_ and fault::hold_replay's mutex, so a refiner
  /// waiting on either sees it.
  std::atomic<bool> stop_{false};

  // --- Writer state (refiner thread and mutators) ------------------------
  /// Serializes every publication: the refiner's drain-refine-publish
  /// step and ApplyMutations. Readers never take this lock.
  std::mutex refine_mu_;

  /// The writer's whole state besides the published snapshot, all guarded
  /// by refine_mu_: the FUP extractor (its fups() are the replay set after
  /// a mutation), the pool the refiner's target evaluation runs on (null
  /// when refine_threads ≤ 1), and the live graph, created on the first
  /// ApplyMutations so sessions that never mutate pay nothing.
  FupExtractor fups_;
  std::unique_ptr<ThreadPool> refine_pool_;
  std::unique_ptr<mutate::LiveGraph> live_;

  std::atomic<uint64_t> refinements_applied_{0};
  std::atomic<uint64_t> publications_{0};

  SessionMetrics metrics_;

  /// Watchdog-owned activities (null when options.watchdog is null); the
  /// watchdog guarantees stable addresses for its lifetime.
  obs::StallWatchdog::Activity* refine_activity_ = nullptr;
  obs::StallWatchdog::Activity* mutate_activity_ = nullptr;

  std::thread refiner_;
};

}  // namespace mrx::server

#endif  // MRX_SERVER_CONCURRENT_SESSION_H_
