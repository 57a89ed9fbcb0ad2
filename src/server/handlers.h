#ifndef FAIRRANK_SERVER_HANDLERS_H_
#define FAIRRANK_SERVER_HANDLERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "common/budget.h"
#include "common/deadline.h"
#include "data/table.h"
#include "server/http.h"

namespace fairrank {

/// Immutable environment the request handlers run against. The tables are
/// loaded once at startup and shared read-only by every request (Table is
/// thread-compatible; handlers only call const methods), so a request costs
/// no data loading.
struct ServerEnv {
  /// Dataset name -> borrowed table. The server owns the tables and
  /// guarantees they outlive every request.
  std::map<std::string, const Table*> datasets;
  /// Dataset used when the request names none.
  std::string default_dataset;
  /// Server-wide per-request wall-clock ceiling. A request's own
  /// `timeout_ms` composes with this via Deadline::Earlier — a client can
  /// tighten its deadline but never loosen it past the ceiling. <= 0 means
  /// no ceiling.
  int64_t timeout_ceiling_ms = 10000;
  /// Applied when the request supplies no `timeout_ms`. <= 0 means the
  /// ceiling alone bounds the request.
  int64_t default_timeout_ms = 0;
  /// Process-level budget every request's child budget chains to (may be
  /// null = unbounded). Borrowed from the server.
  ResourceBudget* process_budget = nullptr;
  /// Cancelled when the server drains; in-flight searches degrade to
  /// truncated best-so-far answers and return promptly.
  CancellationToken drain_cancel;
  /// Upper bound on evaluator threads a single request may ask for.
  int max_request_threads = 1;
  /// Backoff hint attached to load-shedding (503) responses.
  int64_t retry_after_ms = 250;
};

/// What a handler produced: the wire response plus the observability the
/// worker rolls into ServerStats after sending.
struct HandlerResult {
  HttpResponse response;
  bool truncated = false;   ///< 200 whose body carries truncated: true.
};

/// GET/POST /audit — one audit over a loaded dataset. Query (and
/// form-encoded body) parameters mirror the fairaudit CLI flags
/// (`function`, `algorithm`, `timeout-ms`, ... — '_' and '-' are
/// interchangeable) plus `dataset`. Unknown parameters are a 400, exactly
/// like an unknown CLI flag. Exhaustion inside the request (its own limits)
/// degrades to a 200 with truncated: true; only pre-flight failures and
/// evaluation errors are non-200. Never throws. `trace`, when non-null, is
/// the request's span collector (threaded into ExecutionLimits::trace —
/// the server attaches one when slow-request diagnosis is on).
HandlerResult HandleAudit(const ServerEnv& env, const HttpRequest& request,
                          TraceContext* trace = nullptr);

/// GET/POST /suite — an algorithms × functions grid over a loaded dataset.
/// Accepts SuiteOptionFlagNames() (the audit parameters without
/// `algorithm`, plus `algorithms` and `suite-threads`, clamped to
/// max_request_threads), `functions` and `dataset`.
/// Failed cells degrade inside the grid (SuiteCell::error); the response is
/// 200 unless the grid itself cannot be configured.
/// `trace` as in HandleAudit (cells record spans concurrently; the trace
/// is thread-safe).
HandlerResult HandleSuite(const ServerEnv& env, const HttpRequest& request,
                          TraceContext* trace = nullptr);

/// Canonical identity of a cacheable /audit//suite request:
/// "<path>\n<dataset>\n<name>=<value>\n..." with the flags normalized
/// exactly as the handlers see them (query string plus POST form body,
/// '_' -> '-', later duplicates win) and serialized in sorted name order —
/// so GET vs POST and parameter reordering collapse onto one key, and two
/// requests with equal keys run the identical computation over the same
/// immutable table. The `dataset` component is resolved against
/// `env.default_dataset` so naming the default explicitly hits the same
/// entry as omitting it. Fails only when the parameters fail to parse (the
/// handler would fail the same request identically).
StatusOr<std::string> CanonicalRequestKey(const ServerEnv& env,
                                          const HttpRequest& request);

/// Maps a non-OK library Status to the server's structured error response:
/// InvalidArgument/NotFound/OutOfRange/Unimplemented -> 400,
/// exhaustion (ResourceExhausted/DeadlineExceeded/Cancelled) -> 503 with
/// `retry_after_ms`, everything else -> 500.
HttpResponse ResponseFromStatus(const Status& status, int64_t retry_after_ms);

}  // namespace fairrank

#endif  // FAIRRANK_SERVER_HANDLERS_H_
