// Span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the library's public API (elaborate, configure, host-interface
// phases of one event or tile, submit, run, work functors, saves). Each
// span holds a name, start, end, parent and job id. Spans go to
// per-thread buffers held in memory; the run merges and writes them out
// when it ends. With no tracer active a Span costs one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <atomic>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  // static string; the prefix before '.' is the layer
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t job = 0;     // 0 = not tied to one job
  int thread = 0;
};

/// Count, total and self time of one span name. Self time is the span's
/// duration minus the part of it that its child spans cover.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

class Tracer {
 public:
  /// The tracer spans record into, or nullptr when tracing is off.
  static Tracer* active() { return active_.load(std::memory_order_acquire); }
  static void set_active(Tracer* t) {
    active_.store(t, std::memory_order_release);
  }

  std::uint64_t next_id() { return ids_.fetch_add(1) + 1; }
  void record(const SpanRecord& rec);

  /// Every buffer's spans, sorted by start time. Call once the traced
  /// work has finished on every thread.
  std::vector<SpanRecord> merged() const;

  /// Per-name totals over merged().
  std::map<std::string, SpanTotals> totals() const;

  /// Writes the spans as Chrome-trace JSON and reads the file back
  /// through util::json_parse; returns the number of events it holds.
  std::size_t write_chrome_trace(const std::string& path) const;

  /// Thread-local id of the innermost open span (the implicit parent).
  static std::uint64_t& current();

 private:
  struct Buffer {
    int thread = 0;
    std::vector<SpanRecord> spans;
  };
  Buffer& local();

  static std::atomic<Tracer*> active_;
  static std::atomic<std::uint64_t> generations_;
  /// Distinguishes this tracer from earlier ones a thread recorded into,
  /// even when a later tracer reuses a destroyed one's address.
  const std::uint64_t generation_ = generations_.fetch_add(1) + 1;
  std::atomic<std::uint64_t> ids_{0};
  mutable std::mutex mutex_;  // guards buffers_
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span. `parent` overrides the implicit parent (the innermost open
/// span on this thread), for functors that run on pool threads.
class Span {
 public:
  static constexpr std::uint64_t kInherit = ~std::uint64_t{0};

  explicit Span(const char* name, std::uint64_t job = 0,
                std::uint64_t parent = kInherit);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return rec_.id; }

 private:
  Tracer* tracer_;
  SpanRecord rec_;
  std::uint64_t saved_current_ = 0;
};

/// Accumulates time spent in calls too fine-grained for spans (one
/// host-interface read per clock) while a tracer is active.
class Stopwatch {
 public:
  explicit Stopwatch(std::int64_t& acc_ns)
      : acc_(Tracer::active() != nullptr ? &acc_ns : nullptr),
        start_(acc_ != nullptr ? now_ns() : 0) {}
  ~Stopwatch() {
    if (acc_ != nullptr) *acc_ += now_ns() - start_;
  }
  Stopwatch(const Stopwatch&) = delete;
  Stopwatch& operator=(const Stopwatch&) = delete;

 private:
  std::int64_t* acc_;
  std::int64_t start_;
};

}  // namespace perfbench
