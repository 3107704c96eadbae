#ifndef MRX_SERVER_ANSWER_CACHE_H_
#define MRX_SERVER_ANSWER_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "index/evaluator.h"
#include "index/extent.h"
#include "obs/metrics.h"
#include "util/lru_cache.h"

namespace mrx::server {

/// \brief An immutable cached query answer, shared between the cache and
/// every reader that hit it.
///
/// The answer set is held as an Extent, so a hit hands out a handle
/// (refcount bump) instead of deep-copying vectors under the shard lock.
/// Query stats are deliberately absent: a cache hit visits no nodes, so
/// the session rebuilds a zeroed QueryStats on every hit anyway.
struct CachedAnswer {
  Extent answer;                      ///< Sorted data-node answer set.
  std::vector<IndexNodeId> target;    ///< Target index nodes.
  bool precise = true;                ///< Was the index precise?
  /// Index epoch the answer was computed on. `target` names nodes of that
  /// index only, so Unwrap drops it for a reader on another epoch.
  uint64_t index_epoch = 0;
};

using CachedAnswerPtr = std::shared_ptr<const CachedAnswer>;

/// \brief A thread-safe LRU cache of query answers, sharded by key hash.
///
/// ConcurrentSession memoizes through it (the paper's §2 reading of APEX:
/// "an efficiently organized cache of answers to FUPs"). Each shard is an
/// independently locked LruCache, so workers hitting different shards
/// never contend; the total capacity is split evenly across shards.
///
/// Entries are tagged with the *generation* they were computed under: an
/// owner-chosen number that changes exactly when cached answers may stop
/// being right. ConcurrentSession uses the graph version, so only a
/// mutation invalidates. Invalidate(g) clears the cache and makes g
/// current; a racing insert that started under an older generation is
/// rejected by Put, and Get(key, g) refuses an entry from another generation than the
/// reader's, so a reader never sees an answer computed on a different
/// graph than its own (after a mutation, such an answer can be wrong).
class ShardedAnswerCache {
 public:
  /// `capacity` is the total entry bound across all shards; `num_shards`
  /// is rounded up to a power of two. A capacity of 0 disables caching.
  ShardedAnswerCache(size_t capacity, size_t num_shards);

  /// Returns a shared handle to the cached answer for `key` (refreshing
  /// its recency), or null on miss. The handle stays valid after
  /// Invalidate/eviction — entries are immutable and refcounted.
  ///
  /// A reader of generation `generation` hits only an entry computed under
  /// that same generation. A publication swaps the snapshot *before* it
  /// invalidates the cache, so in between a reader already on the new
  /// snapshot would otherwise be served an answer computed on the old one.
  /// Without `generation` any cached entry is served — for a single owner
  /// that never reads across a publication.
  CachedAnswerPtr Get(const std::string& key,
                      std::optional<uint64_t> generation = std::nullopt);

  /// Inserts `value` computed under `generation`; dropped silently if the
  /// current generation has moved on (the owner invalidated in between).
  void Put(const std::string& key, CachedAnswerPtr value,
           uint64_t generation);

  /// Seals a result computed on the index of epoch `index_epoch` (0 for an
  /// owner that only ever has one index) into an immutable cache entry.
  /// `result.answer` must be sorted and duplicate-free (QueryResult's
  /// contract).
  static CachedAnswerPtr Wrap(const QueryResult& result,
                              uint64_t index_epoch = 0);

  /// The inverse of Wrap for a reader on the index of epoch `index_epoch`:
  /// the entry's answer and precision, zeroed stats (a cache hit visits no
  /// nodes), and the entry's target only if it was computed on that same
  /// index — another index's node ids would name the wrong nodes.
  static QueryResult Unwrap(const CachedAnswer& entry, uint64_t index_epoch);

  /// Clears all shards and records `new_generation` as current.
  void Invalidate(uint64_t new_generation);

  /// Current entry count across shards (approximate under concurrency).
  size_t size() const;

  size_t num_shards() const { return shards_.size(); }

  /// Per-shard telemetry counters, accumulated since construction
  /// (Invalidate clears entries, not counters).
  struct ShardStats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    /// Puts rejected because the generation moved between computing the
    /// answer and inserting it (the stale-entry guard the differential
    /// stress checkers report).
    uint64_t stale_drops = 0;
  };

  /// One ShardStats per shard, in shard order. The aggregate is also
  /// mirrored into the process-global metrics registry
  /// (mrx_answer_cache_{hits,misses,evictions}_total).
  std::vector<ShardStats> PerShardStats() const;

 private:
  struct Shard {
    std::mutex mu;
    LruCache<std::string, CachedAnswerPtr> lru;
    uint64_t generation = 0;
    ShardStats stats;

    explicit Shard(size_t capacity) : lru(capacity) {}
  };

  Shard& ShardFor(const std::string& key) {
    return *shards_[std::hash<std::string>{}(key) & shard_mask_];
  }

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_;

  // Global-registry mirrors of the aggregate counters; resolved once.
  obs::Counter* hits_counter_;
  obs::Counter* misses_counter_;
  obs::Counter* evictions_counter_;
};

}  // namespace mrx::server

#endif  // MRX_SERVER_ANSWER_CACHE_H_
