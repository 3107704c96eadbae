#include "server/concurrent_session.h"

#include <chrono>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/query_cost.h"

namespace mrx::server {

ConcurrentSession::SessionMetrics::SessionMetrics() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  queries_total = registry.GetCounter("mrx_queries_total");
  cache_lookup_ns =
      registry.GetHistogram("mrx_query_phase_cache_lookup_ns");
  eval_ns = registry.GetHistogram("mrx_query_phase_eval_ns");
  index_probe_ns = registry.GetHistogram("mrx_query_phase_index_probe_ns");
  validation_ns =
      registry.GetHistogram("mrx_query_phase_data_validation_ns");
  fup_promotions = registry.GetCounter("mrx_refine_fup_promotions_total");
  partition_splits =
      registry.GetCounter("mrx_refine_partition_splits_total");
  observations_dropped =
      registry.GetCounter("mrx_refine_observations_dropped_total");
  publish_ns = registry.GetHistogram("mrx_refine_publish_ns");
  index_epoch = registry.GetGauge("mrx_index_epoch");
  index_components = registry.GetGauge("mrx_index_components");
  index_physical_nodes = registry.GetGauge("mrx_index_physical_nodes");
  index_physical_edges = registry.GetGauge("mrx_index_physical_edges");
  inbox_backlog = registry.GetGauge("mrx_refine_inbox_backlog");
  pool_threads = registry.GetGauge("mrx_refine_pool_threads");
  pool_jobs = registry.GetGauge("mrx_refine_pool_jobs_total");
  pool_busy_ns = registry.GetGauge("mrx_refine_pool_busy_ns_total");
}

ConcurrentSession::ConcurrentSession(const DataGraph& graph,
                                     ConcurrentSessionOptions options)
    : graph_(graph),
      options_(options),
      cache_(options.cache_results ? options.cache_capacity : 0,
             options.cache_shards == 0 ? 16 : options.cache_shards),
      fups_(FupExtractor::Options{options.refine_after, 0}) {
  if (options.refine_threads > 1) {
    refine_pool_ = std::make_unique<ThreadPool>(options.refine_threads);
  }
  metrics_.pool_threads->Set(static_cast<int64_t>(
      refine_pool_ != nullptr ? refine_pool_->num_threads() : 1));
  if (options_.watchdog != nullptr) {
    refine_activity_ = options_.watchdog->RegisterActivity("refine_publish");
    mutate_activity_ = options_.watchdog->RegisterActivity("mutation_apply");
  }
  // Seed publication: epoch 0, graph version 0. publications_ counts only
  // post-seed publications, so index_epoch() == index_publications() holds
  // for mutation-free sessions. The seed graph stays caller-owned (the
  // pre-mutation contract); the aliasing pointer lets it ride in snapshots
  // next to the live graph's successors.
  auto seed = std::make_shared<const MStarIndex>(graph);
  auto chooser = std::make_shared<const StrategyChooser>(*seed);
  handle_.Publish(std::shared_ptr<const DataGraph>(&graph,
                                                   [](const DataGraph*) {}),
                  std::move(seed), std::move(chooser), /*version=*/0);
  refiner_ = std::thread([this] { RefineLoop(); });
}

ConcurrentSession::~ConcurrentSession() {
  // The refiner returns at its next check of stop_: an owed replay or a
  // pending refinement would publish to nobody.
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    stop_ = true;
  }
  inbox_cv_.notify_all();
  refiner_.join();
}

QueryResult ConcurrentSession::EvaluateOn(
    const mutate::VersionSnapshot& snapshot, const PathExpression& query,
    DataEvaluator* validator, MStarQueryStrategy* used) const {
  const MStarQueryStrategy strategy =
      ResolveStrategy(options_.strategy, snapshot.chooser(), query);
  if (used != nullptr) *used = strategy;
  return snapshot.index().Query(strategy, query, validator);
}

QueryResult ConcurrentSession::Query(const PathExpression& query) {
  return QueryInternal(query, nullptr).result;
}

ConcurrentSession::VersionedAnswer ConcurrentSession::QueryVersioned(
    const PathExpression& query) {
  return QueryInternal(query, nullptr);
}

QueryResult ConcurrentSession::QueryExplained(const PathExpression& query,
                                              obs::QueryDiag* diag) {
  return QueryInternal(query, diag).result;
}

ConcurrentSession::VersionedAnswer ConcurrentSession::QueryInternal(
    const PathExpression& query, obs::QueryDiag* diag) {
  const uint64_t begin_ns = obs::MonotonicNowNs();
  const bool slow_capture = options_.slow_query_ns > 0;
  // Per-query trace root; disabled (all no-ops) when there is no tracer or
  // the sampler skips this query. Phase *histograms* are recorded for
  // every query regardless — only the span events and the index-probe /
  // data-validation split are sampled (the split needs validator timing,
  // which costs two clock reads per validation call).
  obs::Span root = options_.tracer != nullptr
                       ? options_.tracer->StartTrace("query")
                       : obs::Span();

  // The whole query runs against one acquired snapshot: graph, index,
  // chooser, and validator all belong to the same version, even if a
  // refinement or mutation publishes mid-flight.
  std::shared_ptr<mutate::VersionSnapshot> snapshot = handle_.Acquire();
  VersionedAnswer answer;
  answer.epoch = snapshot->epoch();
  answer.graph_version = snapshot->version();
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kQueryStart,
                                       answer.epoch, answer.graph_version);

  // The observation is recorded only *after* the cache lookup: if it went
  // to the inbox first, the refiner could promote this very query and
  // invalidate the cache between the observation and the lookup, making
  // even a single-threaded repeat nondeterministically miss.
  std::string key;
  if (options_.cache_results) {
    // The snapshot's symbol table is a superset of every version's (label
    // ids are stable across mutations), so the key is printable whatever
    // version the query was parsed against.
    key = query.ToString(snapshot->graph().symbols());
    const uint64_t lookup_start = obs::MonotonicNowNs();
    // Tagged by graph version: a refinement publish changes no answer, so
    // entries survive it; only a mutation invalidates.
    const CachedAnswerPtr hit = cache_.Get(key, answer.graph_version);
    const bool found = hit != nullptr;
    const uint64_t lookup_ns = obs::MonotonicNowNs() - lookup_start;
    metrics_.cache_lookup_ns->Record(lookup_ns);
    if (root.enabled()) {
      obs::Span lookup = root.Child("cache_lookup");
      lookup.AddAttr("hit", found ? 1 : 0);
      lookup.EndManual(lookup_start, lookup_ns);
    }
    if (found) {
      RecordObservation(query);
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      queries_answered_.fetch_add(1, std::memory_order_relaxed);
      metrics_.queries_total->Increment();
      root.AddAttr("cache_hit", 1);
      // Rehydrate outside the shard lock; stats stay zeroed (a cache hit
      // visits no nodes), and an entry from another index epoch comes
      // without its target ids.
      QueryResult rehydrated = ShardedAnswerCache::Unwrap(*hit, answer.epoch);
      const uint64_t total_ns = obs::MonotonicNowNs() - begin_ns;
      const bool is_slow = slow_capture && total_ns >= options_.slow_query_ns;
      if (diag != nullptr || is_slow) {
        // A cache hit ran no strategy and visited nothing: the record is
        // the outcome (hit), the snapshot coordinates, and the latency.
        obs::QueryDiag local;
        obs::QueryDiag* d = diag != nullptr ? diag : &local;
        d->query = key;
        d->epoch = answer.epoch;
        d->graph_version = answer.graph_version;
        d->answer_epoch = hit->index_epoch;
        d->cache_hit = true;
        d->precise = hit->precise;
        d->latency_ns = total_ns;
        d->answer_size = hit->answer.size();
        if (is_slow) CaptureSlowQuery(d, begin_ns, 0, 0, 0);
      }
      answer.result = std::move(rehydrated);
      return answer;
    }
  }

  // On a miss, record before evaluating so promotion can overlap the
  // evaluation; the answer is exact either way (validation covers
  // under-refinement), and at worst the Put below is dropped as stale.
  RecordObservation(query);

  // The split needs validator timing (two clock reads per validation
  // call), so it stays gated — but EXPLAIN and slow-query capture force it
  // on even when the sampler skipped the span.
  const bool want_timing = root.enabled() || diag != nullptr || slow_capture;

  QueryResult result;
  MStarQueryStrategy used = MStarQueryStrategy::kTopDown;
  obs::QueryCostCounters cost;
  uint64_t validation_ns = 0;
  const uint64_t eval_start = obs::MonotonicNowNs();
  {
    // Actual-cost collection is always on for evaluated queries: the scope
    // is two thread-local stores, and its destructor feeds the process
    // totals (mrx_cost_*_total) the bench reports.
    obs::QueryCostScope cost_scope(&cost);
    mutate::VersionSnapshot::EvaluatorLease lease(snapshot.get());
    DataEvaluator* validator = lease.get();
    if (want_timing) {
      validator->ConsumeValidationNs();  // Clear any stale accumulation.
      validator->EnableValidationTiming(true);
    }
    result = EvaluateOn(*snapshot, query, validator, &used);
    if (want_timing) {
      validation_ns = validator->ConsumeValidationNs();
      validator->EnableValidationTiming(false);  // Returned to pool off.
    }
  }
  const uint64_t eval_ns = obs::MonotonicNowNs() - eval_start;
  metrics_.eval_ns->Record(eval_ns);
  const double est_cost = snapshot->chooser().EstimateCost(query, used);
  est_cost_units_.fetch_add(static_cast<uint64_t>(est_cost + 0.5),
                            std::memory_order_relaxed);
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kStrategyDecision,
      static_cast<uint64_t>(est_cost + 0.5), 0,
      static_cast<uint16_t>(used));
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kQueryPhase,
                                       eval_ns,
                                       result.stats.index_nodes_visited);
  // data_validation is accumulated across validator calls interleaved
  // with the probe, so both phase spans share the evaluation window's
  // start; their durations partition eval_ns (see docs/OBSERVABILITY.md).
  const uint64_t probe_ns =
      eval_ns >= validation_ns ? eval_ns - validation_ns : 0;
  if (root.enabled()) {
    metrics_.index_probe_ns->Record(probe_ns);
    metrics_.validation_ns->Record(validation_ns);
    obs::Span probe = root.Child("index_probe");
    probe.AddAttr("index_nodes_visited", result.stats.index_nodes_visited);
    probe.EndManual(eval_start, probe_ns);
    obs::Span validation = root.Child("data_validation");
    validation.AddAttr("data_nodes_validated",
                       result.stats.data_nodes_validated);
    validation.EndManual(eval_start, validation_ns);
    root.AddAttr("answer_size", result.answer.size());
  }
  queries_answered_.fetch_add(1, std::memory_order_relaxed);
  metrics_.queries_total->Increment();
  stat_index_nodes_.fetch_add(result.stats.index_nodes_visited,
                              std::memory_order_relaxed);
  stat_data_nodes_.fetch_add(result.stats.data_nodes_validated,
                             std::memory_order_relaxed);
  if (options_.cache_results) {
    cache_.Put(key, ShardedAnswerCache::Wrap(result, answer.epoch),
               answer.graph_version);
  }

  const uint64_t total_ns = obs::MonotonicNowNs() - begin_ns;
  const bool is_slow = slow_capture && total_ns >= options_.slow_query_ns;
  if (diag != nullptr || is_slow) {
    obs::QueryDiag local;
    obs::QueryDiag* d = diag != nullptr ? diag : &local;
    d->query = options_.cache_results
                   ? key
                   : query.ToString(snapshot->graph().symbols());
    d->epoch = answer.epoch;
    d->graph_version = answer.graph_version;
    d->answer_epoch = answer.epoch;
    d->cache_hit = false;
    d->precise = result.precise;
    d->strategy = StrategyName(used);
    d->estimated_cost = est_cost;
    for (const StrategyCandidate& c :
         snapshot->chooser().ExplainChoice(query)) {
      obs::QueryDiag::Candidate row;
      row.strategy = StrategyName(c.strategy);
      row.estimated_cost = c.estimated_cost;
      row.eligible = c.eligible;
      // Fixed-strategy sessions override the chooser: flag what actually
      // ran, keeping the chooser's estimates as the comparison column.
      row.chosen = c.strategy == used;
      d->considered.push_back(row);
    }
    d->index_nodes_visited = result.stats.index_nodes_visited;
    d->data_nodes_validated = result.stats.data_nodes_validated;
    d->SetCost(cost);
    d->eval_ns = eval_ns;
    d->latency_ns = total_ns;
    d->answer_size = result.answer.size();
    if (is_slow) {
      CaptureSlowQuery(d, begin_ns, eval_start, probe_ns, validation_ns);
    }
  }
  answer.result = std::move(result);
  return answer;
}

void ConcurrentSession::CaptureSlowQuery(obs::QueryDiag* diag,
                                         uint64_t begin_ns,
                                         uint64_t eval_start_ns,
                                         uint64_t probe_ns,
                                         uint64_t validation_ns) {
  slow_queries_.fetch_add(1, std::memory_order_relaxed);
  if (options_.tracer != nullptr) {
    // Forced trace: slow queries are exactly the ones worth a full span
    // record, so they bypass the sampler.
    obs::Span slow =
        options_.tracer->StartTrace("slow_query", /*always_sample=*/true);
    if (slow.enabled()) {
      slow.AddAttr("cache_hit", diag->cache_hit ? 1 : 0);
      slow.AddAttr("answer_size", diag->answer_size);
      if (eval_start_ns != 0) {
        obs::Span probe = slow.Child("index_probe");
        probe.AddAttr("index_nodes_visited", diag->index_nodes_visited);
        probe.EndManual(eval_start_ns, probe_ns);
        obs::Span validation = slow.Child("data_validation");
        validation.AddAttr("data_nodes_validated",
                           diag->data_nodes_validated);
        validation.EndManual(eval_start_ns, validation_ns);
      }
      diag->trace_id = slow.trace_id();
      last_slow_trace_id_.store(diag->trace_id, std::memory_order_relaxed);
      slow.EndManual(begin_ns, diag->latency_ns);
    }
  }
  obs::FlightRecorder::Global().Record(obs::FlightEventType::kSlowQuery,
                                       diag->latency_ns, diag->trace_id);
  if (options_.slow_query_log != nullptr) {
    options_.slow_query_log->Append(*diag);
  }
}

QueryResult ConcurrentSession::Peek(const PathExpression& query) {
  std::shared_ptr<mutate::VersionSnapshot> snapshot = handle_.Acquire();
  mutate::VersionSnapshot::EvaluatorLease lease(snapshot.get());
  return EvaluateOn(*snapshot, query, lease.get(), nullptr);
}

Result<ConcurrentSession::MutationReceipt> ConcurrentSession::ApplyMutations(
    const mutate::MutationBatch& batch) {
  std::lock_guard<std::mutex> lock(refine_mu_);
  const uint64_t apply_start = obs::MonotonicNowNs();
  obs::StallWatchdog::ScopedActivity watch(mutate_activity_, apply_start);
  if (live_ == nullptr) {
    live_ = std::make_unique<mutate::LiveGraph>(handle_.Acquire()->graph_ptr());
  }
  MRX_ASSIGN_OR_RETURN(mutate::LiveGraph::Step step, live_->Apply(batch));

  // Publish first: the coarse index over the new version is exact, since
  // validation covers every under-refined node (§4.1); refinement only
  // makes it faster, so the FUP replay runs on the refiner afterwards.
  const uint64_t build_start = obs::MonotonicNowNs();
  MStarIndex coarse(live_->graph());
  const uint64_t publish_start = obs::MonotonicNowNs();
  const std::shared_ptr<mutate::VersionSnapshot> snapshot =
      PublishLocked(std::move(coarse), live_->graph_ptr(), step.version);
  // Invalidate after the swap: entries admitted before this are wiped, and
  // a racing Put tagged with an older version is dropped by the guard.
  // Until the wipe lands, readers already on the new snapshot miss the old
  // entries because Get checks their version — so no pre-mutation answer
  // is served to a post-mutation reader.
  const uint64_t invalidate_start = obs::MonotonicNowNs();
  cache_.Invalidate(step.version);
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kCacheEvictionSweep, step.version);
  const uint64_t end = obs::MonotonicNowNs();
  metrics_.publish_ns->Record(end - publish_start);

  // Mutations are rare and high-signal, like refinement batches, so they
  // bypass the per-query sampler. The four steps share their boundary
  // stamps, so they add up to the parent exactly.
  if (options_.tracer != nullptr) {
    obs::Span span =
        options_.tracer->StartTrace("mutation", /*always_sample=*/true);
    if (span.enabled()) {
      auto child = [&](std::string_view name, uint64_t from, uint64_t to) {
        span.Child(name).EndManual(from, to - from);
      };
      child("apply", apply_start, build_start);
      child("coarse_build", build_start, publish_start);
      child("publish", publish_start, invalidate_start);
      child("invalidate", invalidate_start, end);
      span.AddAttr("graph_version", step.version);
      span.AddAttr("batch_ops", batch.size());
      span.AddAttr("nodes_added", step.new_nodes.size());
      span.AddAttr("nodes_deleted", step.nodes_deleted);
      span.EndManual(apply_start, end - apply_start);
    }
  }

  if (!fups_.fups().empty()) {
    {
      std::lock_guard<std::mutex> inbox_lock(inbox_mu_);
      replay_owed_ = true;
    }
    inbox_cv_.notify_one();
  }
  obs::FlightRecorder::Global().Record(
      obs::FlightEventType::kMutationApply,
      obs::MonotonicNowNs() - apply_start, step.version);
  return MutationReceipt{step.version, std::move(step.new_nodes),
                         snapshot->epoch()};
}

void ConcurrentSession::RecordObservation(const PathExpression& query) {
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    // Never block the read path on the refiner: a full inbox sheds the
    // observation. Frequency signals are statistical — a genuinely hot
    // query will come around again.
    if (inbox_.size() >= options_.inbox_capacity) {
      metrics_.observations_dropped->Increment();
      return;
    }
    wake = inbox_.empty();
    inbox_.push_back(query);
    ++submitted_;
    metrics_.inbox_backlog->Set(static_cast<int64_t>(inbox_.size()));
  }
  // Wake the refiner once per batch: it waits on !inbox_.empty() and
  // re-checks that after every batch it processes, so only the push that
  // makes the inbox non-empty needs a signal.
  if (wake) inbox_cv_.notify_one();
}

void ConcurrentSession::RefineLoop() {
  std::vector<PathExpression> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(inbox_mu_);
      for (;;) {
        if (stop_) return;
        if (replay_owed_ && fault::hold_replay.load()) {
          // Held by the test-only pause point, which signals nothing when
          // it is cleared: poll it.
          inbox_cv_.wait_for(lock, std::chrono::milliseconds(1));
        } else if (replay_owed_ || !inbox_.empty()) {
          break;
        } else {
          inbox_cv_.wait(lock);
        }
      }
      batch.clear();
      batch.swap(inbox_);
      metrics_.inbox_backlog->Set(0);
    }

    // FUP extraction, refinement and the replay run under the writer mutex
    // (serializing with ApplyMutations), on an index no reader sees until
    // the publish swaps the snapshot.
    std::lock_guard<std::mutex> writer_lock(refine_mu_);
    bool owed = false;
    bool replay = false;
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      if (stop_) return;
      // A mutation may have landed while this thread waited for the lock;
      // the pause point holds its replay too.
      owed = replay_owed_;
      replay = owed && !fault::hold_replay.load();
    }
    const uint64_t batch_start = obs::MonotonicNowNs();
    obs::StallWatchdog::ScopedActivity watch(refine_activity_, batch_start);
    std::vector<PathExpression> promoted;
    for (const PathExpression& q : batch) {
      if (fups_.Observe(q)) promoted.push_back(q);
    }
    const uint64_t promotions = promoted.size();
    uint64_t splits = 0;
    uint64_t publish_start = 0;
    uint64_t publish_ns = 0;
    std::shared_ptr<mutate::VersionSnapshot> published;
    MStarIndex::PhysicalSize physical;
    // While a replay is owed, promotions wait for it: it refines by every
    // FUP, these included.
    if (replay || (!owed && promotions > 0)) {
      // The replay is a fresh index over the current graph refined by
      // every FUP in promotion order, i.e. what a fresh session on this
      // graph serves after promoting the same FUPs. A refinement refines a
      // clone of the published index by the new FUPs only. Either way one
      // RefineBatch call fans target evaluation out over the refine pool
      // (when configured), and the serial refinement that follows is
      // identical to per-query Refine calls in order.
      const std::shared_ptr<mutate::VersionSnapshot> current =
          handle_.Acquire();
      MStarIndex index = replay ? MStarIndex(current->graph())
                                : current->index().Clone();
      index.set_thread_pool(refine_pool_.get());
      const uint64_t splits_before = index.TotalRefinementStats().splits;
      index.RefineBatch(replay ? fups_.fups() : promoted);
      splits = index.TotalRefinementStats().splits - splits_before;
      metrics_.partition_splits->Increment(splits);

      publish_start = obs::MonotonicNowNs();
      published = PublishLocked(std::move(index), current->graph_ptr(),
                                current->version(), &physical);
      publish_ns = obs::MonotonicNowNs() - publish_start;
      metrics_.publish_ns->Record(publish_ns);
      obs::FlightRecorder::Global().Record(
          obs::FlightEventType::kRefinePublish, publish_ns,
          published->epoch());
    }
    // Counted after their publish or, when an owed replay holds them
    // back, now: that replay applies them.
    refinements_applied_.fetch_add(promotions, std::memory_order_relaxed);
    metrics_.fup_promotions->Increment(promotions);

    // Refinement batches and replays are rare and high-signal, so they
    // bypass the per-query sampler — every one shows up in the trace.
    if (published != nullptr && options_.tracer != nullptr) {
      obs::Span span = options_.tracer->StartTrace("refine_batch",
                                                   /*always_sample=*/true);
      if (span.enabled()) {
        obs::Span publish = span.Child("publish");
        publish.EndManual(publish_start, publish_ns);
        span.AddAttr("batch_observations", batch.size());
        span.AddAttr("fup_promotions", promotions);
        span.AddAttr("fup_replay", replay ? fups_.fups().size() : 0);
        span.AddAttr("partition_splits", splits);
        span.AddAttr("index_physical_nodes", physical.nodes);
        span.EndManual(batch_start, obs::MonotonicNowNs() - batch_start);
      }
    }

    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      processed_ += batch.size();
      if (replay) replay_owed_ = false;
    }
    drained_cv_.notify_all();
  }
}

std::shared_ptr<mutate::VersionSnapshot> ConcurrentSession::PublishLocked(
    MStarIndex index, std::shared_ptr<const DataGraph> graph,
    uint64_t version, MStarIndex::PhysicalSize* physical_out) {
  // Readers never refine, and the pool must outlive every index holding
  // it. Build the chooser before the handle swap: readers only ever wait
  // for the snapshot-pointer swap itself.
  index.set_thread_pool(nullptr);
  auto fresh = std::make_shared<const MStarIndex>(std::move(index));
  auto chooser = std::make_shared<const StrategyChooser>(*fresh);
  std::shared_ptr<mutate::VersionSnapshot> snapshot = handle_.Publish(
      std::move(graph), fresh, std::move(chooser), version);
  publications_.fetch_add(1, std::memory_order_relaxed);

  // Both physical counts come from one walk per component, reading
  // duplicates off the supernode links.
  const MStarIndex::PhysicalSize physical = fresh->Physical();
  metrics_.index_epoch->Set(static_cast<int64_t>(snapshot->epoch()));
  metrics_.index_components->Set(
      static_cast<int64_t>(fresh->num_components()));
  metrics_.index_physical_nodes->Set(static_cast<int64_t>(physical.nodes));
  metrics_.index_physical_edges->Set(static_cast<int64_t>(physical.edges));
  if (physical_out != nullptr) *physical_out = physical;
  if (refine_pool_ != nullptr) {
    const ThreadPool::Stats stats = refine_pool_->stats();
    metrics_.pool_jobs->Set(static_cast<int64_t>(stats.jobs));
    metrics_.pool_busy_ns->Set(static_cast<int64_t>(stats.busy_ns));
  }
  return snapshot;
}

void ConcurrentSession::DrainRefinements() {
  std::unique_lock<std::mutex> lock(inbox_mu_);
  drained_cv_.wait(
      lock, [&] { return processed_ == submitted_ && !replay_owed_; });
}

uint64_t ConcurrentSession::observations_pending() const {
  std::lock_guard<std::mutex> lock(inbox_mu_);
  return submitted_ - processed_;
}

QueryStats ConcurrentSession::cumulative_stats() const {
  QueryStats stats;
  stats.index_nodes_visited =
      stat_index_nodes_.load(std::memory_order_relaxed);
  stats.data_nodes_validated =
      stat_data_nodes_.load(std::memory_order_relaxed);
  return stats;
}

uint64_t ConcurrentSession::index_epoch() const { return handle_.epoch(); }

uint64_t ConcurrentSession::graph_version() const {
  return handle_.Acquire()->version();
}

size_t ConcurrentSession::published_components() const {
  return handle_.Acquire()->index().num_components();
}

}  // namespace mrx::server
