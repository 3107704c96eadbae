#include "server/answer_cache.h"

#include <algorithm>
#include <bit>

namespace mrx::server {

ShardedAnswerCache::ShardedAnswerCache(size_t capacity, size_t num_shards)
    : hits_counter_(obs::MetricsRegistry::Global().GetCounter(
          "mrx_answer_cache_hits_total")),
      misses_counter_(obs::MetricsRegistry::Global().GetCounter(
          "mrx_answer_cache_misses_total")),
      evictions_counter_(obs::MetricsRegistry::Global().GetCounter(
          "mrx_answer_cache_evictions_total")) {
  const size_t shards = std::bit_ceil(std::max<size_t>(1, num_shards));
  shard_mask_ = shards - 1;
  // Split the budget evenly; round up so the total is never below the
  // requested capacity (a shard capacity of 0 would disable its cache).
  const size_t per_shard =
      capacity == 0 ? 0 : (capacity + shards - 1) / shards;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(per_shard));
  }
}

CachedAnswerPtr ShardedAnswerCache::Get(const std::string& key,
                                        std::optional<uint64_t> generation) {
  Shard& shard = ShardFor(key);
  CachedAnswerPtr hit;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    // Every entry in a shard carries the shard's generation: Put admits
    // only that generation and Invalidate clears the entries as it
    // advances it.
    const CachedAnswerPtr* cached =
        generation.has_value() && *generation != shard.generation
            ? nullptr
            : shard.lru.Get(key);
    if (cached != nullptr) {
      ++shard.stats.hits;
      hit = *cached;  // Refcount bump; no payload copy under the lock.
    } else {
      ++shard.stats.misses;
    }
  }
  (hit ? hits_counter_ : misses_counter_)->Increment();
  return hit;
}

void ShardedAnswerCache::Put(const std::string& key, CachedAnswerPtr value,
                             uint64_t generation) {
  Shard& shard = ShardFor(key);
  bool evicted = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.generation != generation) {  // Stale: invalidated since.
      ++shard.stats.stale_drops;
      return;
    }
    evicted = shard.lru.Put(key, std::move(value));
    if (evicted) ++shard.stats.evictions;
  }
  if (evicted) evictions_counter_->Increment();
}

CachedAnswerPtr ShardedAnswerCache::Wrap(const QueryResult& result,
                                         uint64_t index_epoch) {
  auto entry = std::make_shared<CachedAnswer>();
  entry->answer = Extent::FromSorted(std::vector<NodeId>(result.answer));
  entry->target = result.target;
  entry->precise = result.precise;
  entry->index_epoch = index_epoch;
  return entry;
}

QueryResult ShardedAnswerCache::Unwrap(const CachedAnswer& entry,
                                       uint64_t index_epoch) {
  QueryResult result;
  result.answer = entry.answer.Materialize();
  if (entry.index_epoch == index_epoch) result.target = entry.target;
  result.precise = entry.precise;
  return result;
}

void ShardedAnswerCache::Invalidate(uint64_t new_generation) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->lru.Clear();
    shard->generation = new_generation;
  }
}

std::vector<ShardedAnswerCache::ShardStats> ShardedAnswerCache::PerShardStats()
    const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.push_back(shard->stats);
  }
  return out;
}

size_t ShardedAnswerCache::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->lru.size();
  }
  return total;
}

}  // namespace mrx::server
