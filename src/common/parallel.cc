#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_annotations.h"

namespace fairrank {

int HardwareThreads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

namespace {

// Not worth spawning threads for tiny ranges.
constexpr size_t kMinPerThread = 64;
// Stop-check granularity of ParallelForCancellable: small enough that a
// cancelled audit stops within microseconds of real work, large enough that
// the deadline clock read is amortized away.
constexpr size_t kStopCheckBlock = 1024;

/// Exception channel shared by the workers of one parallel loop: keeps only
/// the exception from the lowest chunk index, so the rethrown error is
/// deterministic no matter which worker faults first in wall-clock order.
class ExceptionChannel {
 public:
  /// Records `error` for `chunk_index` unless a lower chunk already faulted.
  void Report(size_t chunk_index, std::exception_ptr error)
      FAIRRANK_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (chunk_index < first_chunk_) {
      first_chunk_ = chunk_index;
      error_ = std::move(error);
    }
  }

  /// Rethrows the winning exception, if any. Call only after every worker
  /// has been joined (no further Report can race).
  void RethrowIfSet() FAIRRANK_EXCLUDES(mutex_) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mutex_;
  size_t first_chunk_ FAIRRANK_GUARDED_BY(mutex_) =
      std::numeric_limits<size_t>::max();
  std::exception_ptr error_ FAIRRANK_GUARDED_BY(mutex_);
};

/// Runs one chunk in stop-checked blocks. Returns false when stopped
/// early. May throw (body or injected fault).
bool RunChunk(size_t chunk_index, size_t begin, size_t end,
              const CancellationToken& cancel, const Deadline& deadline,
              const std::function<void(size_t, size_t)>& body) {
  fault::OnParallelChunk(chunk_index, cancel);
  for (size_t b = begin; b < end; b += kStopCheckBlock) {
    if (cancel.cancel_requested() || deadline.Expired()) return false;
    body(b, std::min(end, b + kStopCheckBlock));
  }
  return true;
}

}  // namespace

/// Joins every worker before returning or rethrowing; the exception from the
/// lowest chunk index wins (see ExceptionChannel).
bool ParallelForCancellable(size_t n, int num_threads,
                            const CancellationToken& cancel,
                            const Deadline& deadline,
                            const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return true;
  size_t usable = std::min<size_t>(static_cast<size_t>(std::max(num_threads, 1)),
                                   (n + kMinPerThread - 1) / kMinPerThread);
  if (usable <= 1) {
    return RunChunk(0, 0, n, cancel, deadline, body);
  }
  std::vector<std::thread> workers;
  workers.reserve(usable - 1);
  ExceptionChannel errors;
  std::atomic<bool> complete{true};
  size_t chunk = (n + usable - 1) / usable;
  for (size_t t = 1; t < usable; ++t) {
    size_t begin = t * chunk;
    size_t end = std::min(n, begin + chunk);
    if (begin >= end) break;
    workers.emplace_back([&, t, begin, end]() {
      try {
        if (!RunChunk(t, begin, end, cancel, deadline, body)) {
          complete.store(false, std::memory_order_relaxed);
        }
      } catch (...) {
        errors.Report(t, std::current_exception());
      }
    });
  }
  try {
    if (!RunChunk(0, 0, std::min(n, chunk), cancel, deadline, body)) {
      complete.store(false, std::memory_order_relaxed);
    }
  } catch (...) {
    errors.Report(0, std::current_exception());
  }
  for (std::thread& w : workers) w.join();
  errors.RethrowIfSet();
  return complete.load(std::memory_order_relaxed);
}

void ParallelForEach(size_t n, int num_threads,
                     const std::function<void(size_t)>& task) {
  if (n == 0) return;
  size_t usable =
      std::min<size_t>(static_cast<size_t>(std::max(num_threads, 1)), n);
  std::atomic<size_t> next{0};
  ExceptionChannel errors;
  auto drain = [&]() {
    for (size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        task(i);
      } catch (...) {
        // Keyed by task index (not worker id) so the rethrown exception is
        // deterministic no matter which worker claimed the faulting item.
        errors.Report(i, std::current_exception());
      }
    }
  };
  // usable == 1 degenerates to a serial in-order drain on the calling
  // thread with identical semantics: every task still runs, the lowest
  // faulting index still wins the rethrow.
  std::vector<std::thread> workers;
  workers.reserve(usable - 1);
  for (size_t t = 1; t < usable; ++t) workers.emplace_back(drain);
  drain();
  for (std::thread& w : workers) w.join();
  errors.RethrowIfSet();
}

}  // namespace fairrank
