#ifndef FAIRRANK_COMMON_PARALLEL_H_
#define FAIRRANK_COMMON_PARALLEL_H_

#include <cstddef>
#include <functional>

#include "common/deadline.h"

namespace fairrank {

/// Runs `body(begin, end)` over a partition of [0, n) across up to
/// `num_threads` worker threads (including the calling thread) and joins.
/// With num_threads <= 1 or tiny n the body runs inline — callers never
/// need a special single-threaded path. Each worker processes its chunk in
/// small blocks and stops between blocks once `cancel` is requested or
/// `deadline` expires, so a cancelled audit actually stops its workers
/// instead of finishing the full range. Returns true if the whole range was
/// processed, false on an early stop (an unspecified tail of each chunk
/// unprocessed — partial results must be discarded). Pass a default token
/// and Deadline::Infinite() to always run the whole range.
///
/// Exception safety: every worker is joined even if bodies throw; the first
/// exception (by chunk index, deterministic) is rethrown on the calling
/// thread. Callers that must not leak exceptions across a Status-based API
/// wrap the call in try/catch.
///
/// `body` must be safe to call concurrently on disjoint ranges.
bool ParallelForCancellable(size_t n, int num_threads,
                            const CancellationToken& cancel,
                            const Deadline& deadline,
                            const std::function<void(size_t, size_t)>& body);

/// Task-pool variant for heavyweight, uneven work items (suite cells, whole
/// audits): runs `task(i)` for every i in [0, n) across up to `num_threads`
/// workers (including the calling thread) with *dynamic* scheduling — each
/// worker pulls the next unclaimed index from a shared atomic counter, so a
/// slow item (the paper's `balanced` algorithm dominates a grid) never idles
/// the other workers the way ParallelForCancellable's static chunking
/// would. With
/// num_threads <= 1 or n <= 1 the tasks run inline in index order.
///
/// Exception behavior is uniform across thread counts: a throwing task
/// never stops the pool (the remaining indices still run), every worker is
/// joined, and the exception from the lowest task index is rethrown
/// deterministically afterwards. Tasks must be safe to run concurrently;
/// each index runs exactly once.
void ParallelForEach(size_t n, int num_threads,
                     const std::function<void(size_t)>& task);

/// Number of hardware threads, at least 1.
int HardwareThreads();

}  // namespace fairrank

#endif  // FAIRRANK_COMMON_PARALLEL_H_
