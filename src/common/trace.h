#ifndef FAIRRANK_COMMON_TRACE_H_
#define FAIRRANK_COMMON_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace fairrank {

/// Monotonic nanoseconds (steady clock) — the timebase of every span.
uint64_t TraceNowNanos();

/// Per-request span collector threaded through ExecutionContext alongside
/// the deadline and the resource budget. One TraceContext covers one logical
/// operation (a CLI audit, one HTTP request); spans are recorded from any
/// thread (the pairwise-distance pool included) under one internal mutex.
///
/// Cost model: a null TraceContext* is tracing compiled in with sampling off
/// — instrumented code does a single pointer check and nothing else (the
/// bench/trace_overhead harness keeps this ≤ 2% on the table2 path). A
/// constructed-but-unsampled context (`sampled = false`) additionally pays
/// the sampled() check. Only a sampled context takes the mutex.
///
/// Storage is bounded: at most `max_spans` spans are kept; later spans are
/// counted as dropped but their durations still feed the per-name totals
/// (AddEvent) so hot-path aggregates stay exact past the cap.
class TraceContext {
 public:
  /// One named span. `parent` is the id of the enclosing span (-1 = root).
  /// `end_ns` is 0 while the span is still open.
  struct Span {
    int64_t id = -1;
    int64_t parent = -1;
    const char* name = "";
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
  };

  /// Aggregate of every completed span / event of one name, including those
  /// dropped past the span cap.
  struct NamedTotal {
    std::string name;
    uint64_t count = 0;
    uint64_t total_ns = 0;
  };

  static constexpr size_t kDefaultMaxSpans = 4096;

  explicit TraceContext(bool sampled = true,
                        size_t max_spans = kDefaultMaxSpans);

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// False = the context exists but records nothing (sampling off).
  bool sampled() const { return sampled_; }

  /// Process-unique hex id, derived from a monotonic counter and the steady
  /// clock (no global RNG — see the rng-discipline lint rule).
  const std::string& trace_id() const { return trace_id_; }

  /// Opens a span; returns its id, or -1 when not recording (unsampled or
  /// span cap reached). `name` must outlive the context (string literals).
  int64_t StartSpan(const char* name, int64_t parent = -1)
      FAIRRANK_EXCLUDES(mutex_);

  /// Closes the span and folds its duration into the per-name totals.
  /// No-op for id < 0.
  void EndSpan(int64_t id) FAIRRANK_EXCLUDES(mutex_);

  /// Records an already-measured operation of `duration_ns` ending now: a
  /// completed span when below the cap, and always a totals update. This is
  /// the hot-path form (histogram / emd) — one mutex
  /// acquisition, no id round trip.
  void AddEvent(const char* name, int64_t parent, uint64_t duration_ns)
      FAIRRANK_EXCLUDES(mutex_);

  /// Instantaneous event (zero-duration span).
  void Event(const char* name, int64_t parent = -1) {
    AddEvent(name, parent, 0);
  }

  size_t span_count() const FAIRRANK_EXCLUDES(mutex_);
  uint64_t spans_dropped() const FAIRRANK_EXCLUDES(mutex_);

  /// Copies of the recorded spans / per-name totals (totals sorted by name).
  std::vector<Span> Snapshot() const FAIRRANK_EXCLUDES(mutex_);
  std::vector<NamedTotal> Totals() const FAIRRANK_EXCLUDES(mutex_);

  /// Human-readable span tree: one line per span, two-space indentation per
  /// depth, children in start order, followed by the per-name totals. Used
  /// by `fairaudit --trace` and the server's slow-request dump.
  std::string FormatTree() const FAIRRANK_EXCLUDES(mutex_);

 private:
  const bool sampled_;
  const size_t max_spans_;
  std::string trace_id_;
  /// Totals entry for `name`, created on first use. The pipeline uses under
  /// a dozen distinct span names, so a linear strcmp scan beats a map — and
  /// unlike a string-keyed map it never allocates on the per-EMD hot path.
  NamedTotal* TotalFor(const char* name) FAIRRANK_REQUIRES(mutex_);

  mutable std::mutex mutex_;
  std::vector<Span> spans_ FAIRRANK_GUARDED_BY(mutex_);
  std::vector<NamedTotal> totals_ FAIRRANK_GUARDED_BY(mutex_);
  uint64_t dropped_ FAIRRANK_GUARDED_BY(mutex_) = 0;
};

/// RAII span: opens on construction (no-op when `trace` is null), closes on
/// destruction. `id()` is the parent handle for child spans.
class ScopedSpan {
 public:
  ScopedSpan(TraceContext* trace, const char* name, int64_t parent = -1)
      : trace_(trace),
        id_(trace != nullptr ? trace->StartSpan(name, parent) : -1) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  TraceContext* trace_;
  int64_t id_;
};

/// Process-unique request id ("req-<boot-hex>-<serial>"): printable, short,
/// and built from a monotonic counter plus the steady clock so it stays
/// inside the rng-discipline rule (no random_device outside common/rng).
std::string NextRequestId();

}  // namespace fairrank

#endif  // FAIRRANK_COMMON_TRACE_H_
