#ifndef MRX_SERVER_BOUNDED_QUEUE_H_
#define MRX_SERVER_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace mrx::server {

/// \brief A bounded multi-producer/multi-consumer FIFO.
///
/// Producers use TryPush (non-blocking; false when full — the server maps
/// this to a kUnavailable Status, which is the backpressure signal) or Push
/// (blocks until space). Consumers use Pop, which blocks until an item is
/// available or the queue is closed; after Close(), Pop drains the
/// remaining items and then returns nullopt, so workers shut down cleanly
/// without dropping accepted work.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues without blocking. Returns false if the queue is full or
  /// closed (the item is untouched in that case). On success, `depth` (if
  /// non-null) receives the queue's length with the item in it.
  bool TryPush(T& item, size_t* depth = nullptr) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      if (depth != nullptr) *depth = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until space is available; returns false only if the queue was
  /// closed first. `depth` is as for TryPush.
  bool Push(T item, size_t* depth = nullptr) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_full_.wait(lock,
                     [&] { return closed_ || items_.size() < capacity_; });
      if (closed_) return false;
      items_.push_back(std::move(item));
      if (depth != nullptr) *depth = items_.size();
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks until an item arrives or the queue is closed and drained.
  std::optional<T> Pop() {
    std::optional<T> out;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      if (items_.empty()) return std::nullopt;  // Closed and drained.
      out.emplace(std::move(items_.front()));
      items_.pop_front();
    }
    not_full_.notify_one();
    return out;
  }

  /// Rejects future pushes and wakes all waiters. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace mrx::server

#endif  // MRX_SERVER_BOUNDED_QUEUE_H_
