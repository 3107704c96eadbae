#include "obs/flight_recorder.h"

#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace mrx::obs {
namespace {

std::atomic<uint64_t> g_next_recorder_id{1};

/// Crash-handler plumbing: one recorder per process owns the handler. The
/// fd is pre-opened at install time so the handler never allocates or
/// opens files.
std::atomic<int> g_crash_fd{-1};
std::atomic<FlightRecorder*> g_crash_recorder{nullptr};

void CrashHandler(int signal_number) {
  const int fd = g_crash_fd.load(std::memory_order_acquire);
  FlightRecorder* recorder = g_crash_recorder.load(std::memory_order_acquire);
  if (fd >= 0 && recorder != nullptr) {
    recorder->DumpRawTo(fd, signal_number);
  }
  std::signal(signal_number, SIG_DFL);
  std::raise(signal_number);
}

/// write(2) the whole buffer, retrying short writes. Async-signal-safe.
void WriteAll(int fd, const void* data, size_t size) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n <= 0) return;
    p += n;
    size -= static_cast<size_t>(n);
  }
}

/// Formats `v` into `buf` (decimal), returns the digit count. The signal
/// handler cannot call snprintf (not async-signal-safe on all libcs).
size_t FormatU64(uint64_t v, char* buf) {
  char tmp[24];
  size_t n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = tmp[n - 1 - i];
  return n;
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* const recorder = new FlightRecorder();
  return *recorder;
}

FlightRecorder::FlightRecorder(FlightRecorderOptions options)
    : options_(options),
      recorder_id_(
          g_next_recorder_id.fetch_add(1, std::memory_order_relaxed)) {
  if (options_.events_per_thread == 0) {
    const_cast<FlightRecorderOptions&>(options_).events_per_thread = 1;
  }
}

FlightRecorder::~FlightRecorder() {
  // Retire the crash handler if this recorder owned it: the rings are
  // about to be freed.
  FlightRecorder* self = this;
  if (g_crash_recorder.compare_exchange_strong(self, nullptr)) {
    g_crash_fd.store(-1, std::memory_order_release);
  }
}

FlightRecorder::Ring* FlightRecorder::ThisThreadRing() {
  // Per-thread cache keyed by the recorder's process-unique id (not its
  // address, which a later recorder could reuse). Threads touch a handful
  // of recorders at most (the global one plus test-local ones), so the
  // linear scan is fine. On thread exit each ring goes back to its
  // recorder's free list.
  struct CacheEntry {
    uint64_t recorder_id;
    Ring* ring;
    std::shared_ptr<FreeRings> free;
  };
  struct Cache {
    std::vector<CacheEntry> entries;
    ~Cache() {
      for (const CacheEntry& e : entries) {
        std::lock_guard<std::mutex> lock(e.free->mu);
        e.free->rings.push_back(e.ring);
      }
    }
  };
  thread_local Cache cache;
  for (const CacheEntry& e : cache.entries) {
    if (e.recorder_id == recorder_id_) return e.ring;
  }
  std::lock_guard<std::mutex> lock(registry_mu_);
  const uint32_t thread = next_thread_++;
  Ring* ring = nullptr;
  {
    std::lock_guard<std::mutex> free_lock(free_rings_->mu);
    if (!free_rings_->rings.empty()) {
      ring = free_rings_->rings.back();
      free_rings_->rings.pop_back();
    }
  }
  if (ring != nullptr) {
    // The exited thread's events stay, under its ordinal, until this
    // thread's overwrite them.
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->thread = thread;
  } else {
    rings_.push_back(
        std::make_unique<Ring>(options_.events_per_thread, thread));
    ring = rings_.back().get();
    const size_t flat = flat_count_.load(std::memory_order_relaxed);
    if (flat < kMaxRings) {
      flat_[flat] = ring;
      flat_count_.store(flat + 1, std::memory_order_release);
    }
  }
  cache.entries.push_back(CacheEntry{recorder_id_, ring, free_rings_});
  return ring;
}

void FlightRecorder::Record(FlightEventType type, uint64_t a, uint64_t b,
                            uint16_t code) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  Ring* ring = ThisThreadRing();
  const uint64_t now = MonotonicNowNs();
  {
    std::lock_guard<std::mutex> lock(ring->mu);
    FlightEvent& e = ring->events[ring->next % ring->events.size()];
    e.ts_ns = now;
    e.thread = ring->thread;
    e.type = static_cast<uint16_t>(type);
    e.code = code;
    e.a = a;
    e.b = b;
    ++ring->next;
  }
  total_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<FlightEvent> FlightRecorder::Snapshot(size_t last_n) const {
  std::vector<FlightEvent> out;
  {
    std::lock_guard<std::mutex> lock(registry_mu_);
    for (const std::unique_ptr<Ring>& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring->mu);
      const size_t cap = ring->events.size();
      const size_t count = static_cast<size_t>(
          std::min<uint64_t>(ring->next, cap));
      const size_t head =
          ring->next > cap ? static_cast<size_t>(ring->next % cap) : 0;
      for (size_t i = 0; i < count; ++i) {
        out.push_back(ring->events[(head + i) % cap]);
      }
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     return x.ts_ns < y.ts_ns;
                   });
  if (last_n > 0 && out.size() > last_n) {
    out.erase(out.begin(),
              out.begin() + static_cast<ptrdiff_t>(out.size() - last_n));
  }
  return out;
}

void FlightRecorder::WriteJsonl(std::ostream& os, size_t last_n) const {
  for (const FlightEvent& e : Snapshot(last_n)) {
    os << "{\"ts_ns\":" << e.ts_ns << ",\"thread\":" << e.thread
       << ",\"type\":";
    AppendJsonString(os, TypeName(e.type));
    os << ",\"code\":" << e.code << ",\"a\":" << e.a << ",\"b\":" << e.b
       << "}\n";
  }
}

size_t FlightRecorder::num_threads() const {
  std::lock_guard<std::mutex> lock(registry_mu_);
  return rings_.size();
}

const char* FlightRecorder::TypeName(uint16_t type) {
  switch (static_cast<FlightEventType>(type)) {
    case FlightEventType::kNone:
      return "none";
    case FlightEventType::kQueryAdmit:
      return "query_admit";
    case FlightEventType::kQueryStart:
      return "query_start";
    case FlightEventType::kQueryPhase:
      return "query_phase";
    case FlightEventType::kStrategyDecision:
      return "strategy_decision";
    case FlightEventType::kRefinePublish:
      return "refine_publish";
    case FlightEventType::kMutationApply:
      return "mutation_apply";
    case FlightEventType::kCacheEvictionSweep:
      return "cache_eviction_sweep";
    case FlightEventType::kSlowQuery:
      return "slow_query";
    case FlightEventType::kWatchdogStall:
      return "watchdog_stall";
  }
  return "unknown";
}

Status FlightRecorder::InstallCrashHandler(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Internal("cannot open crash-dump target: " + path);
  }
  // Hand the fd to the handler; the FILE* is leaked on purpose (the
  // process is crashing when it gets used, and fclose would invalidate
  // the fd the handler holds).
  g_crash_fd.store(fileno(file), std::memory_order_release);
  g_crash_recorder.store(this, std::memory_order_release);
  for (const int sig : {SIGSEGV, SIGBUS, SIGABRT, SIGFPE, SIGILL}) {
    std::signal(sig, CrashHandler);
  }
  return Status::Ok();
}

void FlightRecorder::DumpRawTo(int fd, int signal_number) const {
  // Header line: "MRXFLIGHT1 sig=<n> rings=<m>\n", hand-formatted (the
  // caller may be a signal handler).
  char buf[96];
  size_t n = 0;
  const char magic[] = "MRXFLIGHT1 sig=";
  for (const char* p = magic; *p != '\0'; ++p) buf[n++] = *p;
  n += FormatU64(static_cast<uint64_t>(signal_number), buf + n);
  const char rings_label[] = " rings=";
  for (const char* p = rings_label; *p != '\0'; ++p) buf[n++] = *p;
  const size_t num_rings = flat_count_.load(std::memory_order_acquire);
  n += FormatU64(num_rings, buf + n);
  buf[n++] = '\n';
  WriteAll(fd, buf, n);

  // Per ring: "ring <thread> <count>\n" then the raw 32-byte events,
  // oldest first. No locks: a racing writer can tear at most the one
  // event it is writing.
  for (size_t r = 0; r < num_rings; ++r) {
    const Ring* ring = flat_[r];
    const size_t cap = ring->events.size();
    const uint64_t next = ring->next;
    const size_t count = static_cast<size_t>(std::min<uint64_t>(next, cap));
    n = 0;
    const char ring_label[] = "ring ";
    for (const char* p = ring_label; *p != '\0'; ++p) buf[n++] = *p;
    n += FormatU64(ring->thread, buf + n);
    buf[n++] = ' ';
    n += FormatU64(count, buf + n);
    buf[n++] = '\n';
    WriteAll(fd, buf, n);
    const size_t head = next > cap ? static_cast<size_t>(next % cap) : 0;
    if (head == 0) {
      WriteAll(fd, ring->events.data(), count * sizeof(FlightEvent));
    } else {
      WriteAll(fd, ring->events.data() + head,
               (cap - head) * sizeof(FlightEvent));
      WriteAll(fd, ring->events.data(), head * sizeof(FlightEvent));
    }
  }
}

}  // namespace mrx::obs
