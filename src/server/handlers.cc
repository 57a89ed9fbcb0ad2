#include "server/handlers.h"

#include <algorithm>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/str_util.h"
#include "fairness/aggregate.h"
#include "fairness/auditor.h"
#include "fairness/option_flags.h"
#include "fairness/report.h"
#include "fairness/suite.h"

namespace fairrank {

namespace {

/// Collects the request's parameters (query string, plus the form-encoded
/// body of a POST) into a FlagParser so the CLI's option parsers apply
/// verbatim. Parameter names normalize '_' to '-', so `max_nodes` and
/// `max-nodes` are the same flag. Later duplicates win; the body overrides
/// the query string.
StatusOr<FlagParser> RequestFlags(const HttpRequest& request) {
  std::vector<std::pair<std::string, std::string>> pairs = request.query;
  if (request.method == "POST" && !request.body.empty()) {
    for (auto& [name, value] : ParseQueryString(request.body)) {
      pairs.emplace_back(std::move(name), std::move(value));
    }
  }
  for (auto& [name, value] : pairs) {
    std::replace(name.begin(), name.end(), '_', '-');
  }
  return FlagParser::FromPairs(pairs);
}

/// Resolves the `dataset` parameter against the loaded tables.
StatusOr<const Table*> ResolveDataset(const ServerEnv& env,
                                      const FlagParser& flags) {
  std::string name = flags.GetString("dataset", env.default_dataset);
  auto it = env.datasets.find(name);
  if (it != env.datasets.end()) return it->second;
  std::vector<std::string> known;
  known.reserve(env.datasets.size());
  for (const auto& [key, table] : env.datasets) known.push_back(key);
  return Status::NotFound("unknown dataset '" + name + "' (loaded: " +
                          Join(known, ", ") + ")");
}

/// Composes a request's parsed limits with the server's: the deadline is the
/// earlier of the request timeout and the server ceiling, cancellation is
/// the drain token, and the budget chains to the process-level parent so
/// admission control sees every node this request spends.
void ComposeLimits(const ServerEnv& env, const FlagParser& flags,
                   ExecutionLimits* limits) {
  if (limits->timeout_ms <= 0 && !flags.Has("timeout-ms") &&
      env.default_timeout_ms > 0) {
    limits->timeout_ms = env.default_timeout_ms;
  }
  if (env.timeout_ceiling_ms > 0) {
    limits->deadline = Deadline::AfterMillis(env.timeout_ceiling_ms);
  }
  limits->cancel = env.drain_cancel;
  limits->parent_budget = env.process_budget;
}

int ClampThreads(int requested, int max_threads) {
  if (requested < 1) return 1;
  if (max_threads > 0 && requested > max_threads) return max_threads;
  return requested;
}

std::vector<std::string> KnownAuditParams() {
  std::vector<std::string> known = AuditOptionFlagNames();
  known.push_back("function");
  known.push_back("dataset");
  known.push_back("aggregate");
  return known;
}

std::vector<std::string> KnownSuiteParams() {
  std::vector<std::string> known = SuiteOptionFlagNames();
  known.push_back("functions");
  known.push_back("dataset");
  return known;
}

StatusOr<HandlerResult> RunAudit(const ServerEnv& env,
                                 const HttpRequest& request,
                                 TraceContext* trace) {
  FAIRRANK_ASSIGN_OR_RETURN(FlagParser flags, RequestFlags(request));
  FAIRRANK_RETURN_NOT_OK(ValidateKnownFlags(flags, KnownAuditParams()));
  FAIRRANK_ASSIGN_OR_RETURN(const Table* table, ResolveDataset(env, flags));
  FAIRRANK_ASSIGN_OR_RETURN(
      std::unique_ptr<ScoringFunction> fn,
      MakeFunctionFromSpec(flags.GetString("function", "alpha:0.5")));
  FAIRRANK_ASSIGN_OR_RETURN(AuditOptions options,
                            AuditOptionsFromFlags(flags));
  ComposeLimits(env, flags, &options.limits);
  options.limits.trace = trace;
  options.evaluator.num_threads =
      ClampThreads(options.evaluator.num_threads, env.max_request_threads);

  FAIRRANK_ASSIGN_OR_RETURN(bool aggregate, flags.GetBool("aggregate", false));
  HandlerResult out;
  if (aggregate) {
    // `/audit?aggregate=1`: the cell-store route, one ingest shard per
    // request thread, bounded by the composed request limits. Served out of
    // this handler so admission control, tracing, and the response cache
    // (the canonicalizer folds `aggregate` into the key by iterating
    // FlagNames(); truncated answers are never cached) treat it like any
    // audit.
    FAIRRANK_ASSIGN_OR_RETURN(AggregateAudit audit,
                              RunAggregateAudit(*table, *fn, options));
    out.response.body =
        FormatAggregateAuditJson(audit.store, audit.result, audit.info);
    out.truncated = audit.result.truncated;
    return out;
  }

  FairnessAuditor auditor(table);
  FAIRRANK_ASSIGN_OR_RETURN(AuditResult result, auditor.Audit(*fn, options));
  out.response.body = FormatAuditJson(result);
  out.truncated = result.truncated;
  return out;
}

StatusOr<HandlerResult> RunSuite(const ServerEnv& env,
                                 const HttpRequest& request,
                                 TraceContext* trace) {
  FAIRRANK_ASSIGN_OR_RETURN(FlagParser flags, RequestFlags(request));
  FAIRRANK_RETURN_NOT_OK(ValidateKnownFlags(flags, KnownSuiteParams()));
  FAIRRANK_ASSIGN_OR_RETURN(const Table* table, ResolveDataset(env, flags));
  FAIRRANK_ASSIGN_OR_RETURN(SuiteOptions options,
                            SuiteOptionsFromFlags(flags));
  FAIRRANK_ASSIGN_OR_RETURN(
      std::vector<std::unique_ptr<ScoringFunction>> owned,
      FunctionsFromFlags(flags));
  std::vector<const ScoringFunction*> functions;
  for (const auto& fn : owned) functions.push_back(fn.get());

  ComposeLimits(env, flags, &options.audit.limits);
  options.audit.limits.trace = trace;
  options.audit.evaluator.num_threads = ClampThreads(
      options.audit.evaluator.num_threads, env.max_request_threads);
  options.num_threads =
      ClampThreads(options.num_threads, env.max_request_threads);
  AuditSuite suite(table);
  FAIRRANK_ASSIGN_OR_RETURN(SuiteResult result,
                            suite.Run(functions, options));
  HandlerResult out;
  out.response.body = FormatSuiteJson(result);
  out.truncated = result.summary.cells_truncated > 0;
  return out;
}

/// The no-exceptions-escape wrapper both endpoints share: a library failure
/// becomes a structured status response and a thrown exception becomes a
/// 500 — one misbehaving request must never take the process down.
template <typename Fn>
HandlerResult GuardRequest(const ServerEnv& env, Fn&& fn) {
  try {
    StatusOr<HandlerResult> result = fn();
    if (result.ok()) return std::move(result).value();
    HandlerResult out;
    out.response = ResponseFromStatus(result.status(), env.retry_after_ms);
    return out;
  } catch (const std::exception& e) {
    HandlerResult out;
    out.response = MakeErrorResponse(
        500, "Internal", "exception",
        std::string("unhandled exception: ") + e.what());
    return out;
  } catch (...) {
    HandlerResult out;
    out.response =
        MakeErrorResponse(500, "Internal", "exception", "unknown exception");
    return out;
  }
}

}  // namespace

StatusOr<std::string> CanonicalRequestKey(const ServerEnv& env,
                                          const HttpRequest& request) {
  FAIRRANK_ASSIGN_OR_RETURN(FlagParser flags, RequestFlags(request));
  std::string key = request.path;
  key += '\n';
  key += flags.GetString("dataset", env.default_dataset);
  for (const std::string& name : flags.FlagNames()) {
    // The dataset is already folded into the key above, with the default
    // resolved — repeating the raw flag here would split "dataset=<default>
    // spelled out" and "dataset omitted" into two cache entries.
    if (name == "dataset") continue;
    key += '\n';
    key += name;
    key += '=';
    key += flags.GetString(name, "");
  }
  return key;
}

HttpResponse ResponseFromStatus(const Status& status, int64_t retry_after_ms) {
  int http_status = 500;
  int64_t retry = 0;
  const char* reason = "error";
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kFailedPrecondition:
    case StatusCode::kUnimplemented:
      http_status = 400;
      reason = "bad_request";
      break;
    case StatusCode::kResourceExhausted:
    case StatusCode::kDeadlineExceeded:
    case StatusCode::kCancelled:
      http_status = 503;
      reason = "exhausted";
      retry = retry_after_ms;
      break;
    default:
      break;
  }
  return MakeErrorResponse(http_status, StatusCodeToString(status.code()),
                           reason, status.message(), retry);
}

HandlerResult HandleAudit(const ServerEnv& env, const HttpRequest& request,
                          TraceContext* trace) {
  return GuardRequest(env, [&] { return RunAudit(env, request, trace); });
}

HandlerResult HandleSuite(const ServerEnv& env, const HttpRequest& request,
                          TraceContext* trace) {
  return GuardRequest(env, [&] { return RunSuite(env, request, trace); });
}

}  // namespace fairrank
