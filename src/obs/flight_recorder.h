#ifndef MRX_OBS_FLIGHT_RECORDER_H_
#define MRX_OBS_FLIGHT_RECORDER_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "util/result.h"

namespace mrx::obs {

/// What a flight-recorder event describes. Values are stable (they appear
/// in crash dumps and the diag bundle); append only.
enum class FlightEventType : uint16_t {
  kNone = 0,
  kQueryAdmit = 1,        ///< a = queue depth at admit.
  kQueryStart = 2,        ///< a = snapshot epoch, b = graph version.
  kQueryPhase = 3,        ///< a = eval_ns, b = index nodes visited.
  kStrategyDecision = 4,  ///< code = strategy, a = estimated cost (units).
  kRefinePublish = 5,     ///< a = publish_ns, b = new epoch.
  kMutationApply = 6,     ///< a = apply_ns, b = new graph version.
  kCacheEvictionSweep = 7,  ///< a = new graph version (invalidation sweep).
  kSlowQuery = 8,         ///< a = latency_ns, b = trace id.
  kWatchdogStall = 9,     ///< a = stalled-for ns, code = probe index.
};

/// One compact binary event: 32 bytes, fixed layout, no pointers — safe to
/// write raw from a fatal-signal handler.
struct FlightEvent {
  uint64_t ts_ns = 0;   ///< MonotonicNowNs() at record time.
  uint32_t thread = 0;  ///< Recorder-local thread ordinal.
  uint16_t type = 0;    ///< FlightEventType.
  uint16_t code = 0;    ///< Small per-type discriminator.
  uint64_t a = 0;
  uint64_t b = 0;
};
static_assert(sizeof(FlightEvent) == 32, "FlightEvent must stay compact");

struct FlightRecorderOptions {
  /// Ring capacity per recording thread. At 32 bytes/event the default is
  /// 128 KiB per thread — enough for the last few seconds of server
  /// activity, small enough to stay always-on.
  size_t events_per_thread = 4096;
};

/// \brief An always-on, per-thread ring buffer of compact binary events —
/// the "what was the process doing just before X" record that metrics
/// (aggregates) and traces (sampled) cannot answer.
///
/// Record() writes into the calling thread's private ring under that
/// ring's own mutex (uncontended on the hot path: only Snapshot takes
/// another thread's ring mutex), overwriting the oldest event when full.
/// Snapshot() merges all rings, timestamp-sorted. The crash handler writes
/// the raw rings to a pre-opened fd without locks or allocation, then
/// re-raises — best effort, but the rings are plain arrays, so a torn
/// in-progress event is the worst case.
class FlightRecorder {
 public:
  /// The process-wide recorder every subsystem records into. Never
  /// destroyed (like MetricsRegistry::Global()).
  static FlightRecorder& Global();

  explicit FlightRecorder(FlightRecorderOptions options = {});
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Records one event into the calling thread's ring. Cheap: an atomic
  /// enabled check, a thread-local ring lookup, one uncontended lock, one
  /// 32-byte store.
  void Record(FlightEventType type, uint64_t a = 0, uint64_t b = 0,
              uint16_t code = 0);

  /// Turns recording off/on (`mrx diag --flight off` for overhead A/B
  /// runs). Events recorded while disabled are simply not written.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// All buffered events, merged across rings and sorted by timestamp;
  /// `last_n` > 0 keeps only the newest n.
  std::vector<FlightEvent> Snapshot(size_t last_n = 0) const;

  /// One JSON object per line:
  /// {"ts_ns":1,"thread":0,"type":"query_start","code":0,"a":2,"b":3}
  void WriteJsonl(std::ostream& os, size_t last_n = 0) const;

  /// Events ever recorded (including overwritten ones).
  uint64_t total_recorded() const {
    return total_.load(std::memory_order_relaxed);
  }

  /// Rings allocated so far: the most threads that were recording at
  /// once. A thread that exits hands its ring, with the events in it, to
  /// the next thread that starts recording, so a process that keeps
  /// starting threads keeps a bounded set of rings.
  size_t num_threads() const;

  static const char* TypeName(uint16_t type);

  /// Installs a best-effort fatal-signal handler (SIGSEGV/SIGBUS/SIGABRT/
  /// SIGFPE/SIGILL) that dumps this recorder's raw rings to `path` and
  /// re-raises. One recorder per process can own the handler; installing
  /// again replaces the dump target.
  Status InstallCrashHandler(const std::string& path);

  /// The crash handler's writer, public for tests: appends a small text
  /// header then each ring's raw event bytes to `fd` using only
  /// async-signal-safe calls (write(2); no locks, no allocation).
  void DumpRawTo(int fd, int signal_number) const;

 private:
  struct Ring {
    Ring(size_t capacity, uint32_t thread)
        : thread(thread), events(capacity) {}
    mutable std::mutex mu;
    uint32_t thread;  ///< The recording thread's ordinal (guarded by mu).
    uint64_t next = 0;  ///< Events ever written to this ring.
    std::vector<FlightEvent> events;  ///< Fixed size, ring-indexed.
  };

  /// Rings of exited threads. Shared with the threads' caches, which
  /// return their rings here on exit and may outlive the recorder.
  struct FreeRings {
    std::mutex mu;
    std::vector<Ring*> rings;
  };

  Ring* ThisThreadRing();

  const FlightRecorderOptions options_;
  const uint64_t recorder_id_;  ///< Process-unique; keys the TLS cache.
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> total_{0};

  mutable std::mutex registry_mu_;
  std::vector<std::unique_ptr<Ring>> rings_;
  uint32_t next_thread_ = 0;  ///< Guarded by registry_mu_.
  const std::shared_ptr<FreeRings> free_rings_ =
      std::make_shared<FreeRings>();

  /// Lock-free view of the rings for the signal handler: a fixed array
  /// filled left to right with release stores; the handler reads count
  /// with acquire and never touches beyond it.
  static constexpr size_t kMaxRings = 256;
  std::array<Ring*, kMaxRings> flat_{};
  std::atomic<size_t> flat_count_{0};
};

}  // namespace mrx::obs

#endif  // MRX_OBS_FLIGHT_RECORDER_H_
