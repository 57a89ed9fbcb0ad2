#include "server/stats.h"

#include "common/str_util.h"
#include "fairness/report.h"

namespace fairrank {

void ServerStats::RecordRequest(const std::string& endpoint, int status,
                                double seconds, bool truncated) {
  std::lock_guard<std::mutex> lock(mutex_);
  EndpointStats& ep = endpoints_[endpoint];
  ++ep.count;
  if (status >= 400) ++ep.errors;
  if (truncated) ++ep.truncated;
  ep.total_seconds += seconds;
  if (seconds > ep.max_seconds) ep.max_seconds = seconds;
  ep.latency.Observe(seconds);
}

void ServerStats::RecordShed(const std::string& reason) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++shed_[reason];
}

void ServerStats::RecordAccepted() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++accepted_;
}

void ServerStats::RecordParseError() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++parse_errors_;
}

void ServerStats::RecordConnectionReuse() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++keep_alive_reuses_;
}

std::string ServerStats::ToJson(const ResourceBudget* process_budget,
                                int in_flight, bool draining,
                                size_t queue_depth,
                                const ResponseCacheStats& response_cache)
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{";
  out += "\"in_flight\":" + std::to_string(in_flight) + ",";
  out += "\"draining\":" + std::string(draining ? "true" : "false") + ",";
  out += "\"queue_depth\":" + std::to_string(queue_depth) + ",";
  out += "\"accepted\":" + std::to_string(accepted_) + ",";
  out += "\"parse_errors\":" + std::to_string(parse_errors_) + ",";
  out += "\"keep_alive_reuses\":" + std::to_string(keep_alive_reuses_) + ",";

  out += "\"response_cache\":{";
  out += "\"hits\":" + std::to_string(response_cache.hits) + ",";
  out += "\"misses\":" + std::to_string(response_cache.misses) + ",";
  out += "\"insertions\":" + std::to_string(response_cache.insertions) + ",";
  out += "\"evictions\":" + std::to_string(response_cache.evictions) + ",";
  out += "\"bytes_used\":" + std::to_string(response_cache.bytes_used) + ",";
  out += "\"entries\":" + std::to_string(response_cache.entries);
  out += "},";

  out += "\"shed\":{";
  uint64_t shed_total = 0;
  bool first = true;
  for (const auto& [reason, count] : shed_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(reason) + "\":" + std::to_string(count);
    shed_total += count;
  }
  if (!first) out += ",";
  out += "\"total\":" + std::to_string(shed_total);
  out += "},";

  out += "\"budget\":";
  if (process_budget == nullptr) {
    out += "null,";
  } else {
    out += "{";
    out += "\"nodes_used\":" + std::to_string(process_budget->nodes_used()) +
           ",";
    out += "\"max_nodes\":" + std::to_string(process_budget->max_nodes()) +
           ",";
    out += "\"memory_used_bytes\":" +
           std::to_string(process_budget->memory_used_bytes()) + ",";
    out += "\"max_memory_bytes\":" +
           std::to_string(process_budget->max_memory_bytes()) + ",";
    out += "\"nodes_exhausted\":" +
           std::string(process_budget->nodes_exhausted() ? "true" : "false") +
           ",";
    out += "\"memory_exhausted\":" +
           std::string(process_budget->memory_exhausted() ? "true" : "false");
    out += "},";
  }

  out += "\"endpoints\":{";
  first = true;
  for (const auto& [endpoint, ep] : endpoints_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(endpoint) + "\":{";
    out += "\"count\":" + std::to_string(ep.count) + ",";
    out += "\"errors\":" + std::to_string(ep.errors) + ",";
    out += "\"truncated\":" + std::to_string(ep.truncated) + ",";
    out += "\"total_ms\":" + FormatDouble(ep.total_seconds * 1000.0, 3) + ",";
    out += "\"max_ms\":" + FormatDouble(ep.max_seconds * 1000.0, 3) + ",";
    // Same sketch reads as ToPrometheus' quantile samples: /stats reports
    // milliseconds at 3 decimals, /metrics seconds at 6 — identical digits.
    out += "\"p50_ms\":" +
           FormatDouble(ep.latency.QuantileSeconds(0.5).value_or(0.0) * 1000.0,
                        3) +
           ",";
    out += "\"p99_ms\":" +
           FormatDouble(ep.latency.QuantileSeconds(0.99).value_or(0.0) *
                            1000.0,
                        3);
    out += "}";
  }
  out += "}";

  out += "}";
  return out;
}

namespace {

/// One `name{labels} value` sample line; `labels` may be empty.
void Sample(std::string* out, const std::string& name,
            const std::string& labels, const std::string& value) {
  *out += name;
  if (!labels.empty()) *out += "{" + labels + "}";
  *out += " " + value + "\n";
}

void Header(std::string* out, const std::string& name, const char* type,
            const std::string& help) {
  *out += "# HELP " + name + " " + help + "\n";
  *out += "# TYPE " + name + " " + std::string(type) + "\n";
}

std::string EndpointLabel(const std::string& endpoint) {
  return "endpoint=\"" + JsonEscape(endpoint) + "\"";
}

}  // namespace

std::string ServerStats::ToPrometheus(
    const ResourceBudget* process_budget, int in_flight, bool draining,
    size_t queue_depth, const ResponseCacheStats& response_cache) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;

  const std::string requests = "fairrank_http_requests_total";
  Header(&out, requests, "counter", "Requests served, by endpoint");
  for (const auto& [endpoint, ep] : endpoints_) {
    Sample(&out, requests, EndpointLabel(endpoint), std::to_string(ep.count));
  }

  const std::string errors = "fairrank_http_request_errors_total";
  Header(&out, errors, "counter", "Responses with status >= 400, by endpoint");
  for (const auto& [endpoint, ep] : endpoints_) {
    Sample(&out, errors, EndpointLabel(endpoint), std::to_string(ep.errors));
  }

  const std::string truncated = "fairrank_http_requests_truncated_total";
  Header(&out, truncated, "counter",
         "200s whose body carried truncated results, by endpoint");
  for (const auto& [endpoint, ep] : endpoints_) {
    Sample(&out, truncated, EndpointLabel(endpoint),
           std::to_string(ep.truncated));
  }

  const std::string duration = "fairrank_http_request_duration_seconds";
  Header(&out, duration, "summary",
         "Request wall time, by endpoint (GK sketch; same sketch as /stats)");
  for (const auto& [endpoint, ep] : endpoints_) {
    const std::string label = EndpointLabel(endpoint);
    if (ep.latency.count() > 0) {
      Sample(&out, duration, label + ",quantile=\"0.5\"",
             FormatDouble(ep.latency.QuantileSeconds(0.5).value_or(0.0), 6));
      Sample(&out, duration, label + ",quantile=\"0.99\"",
             FormatDouble(ep.latency.QuantileSeconds(0.99).value_or(0.0), 6));
    }
    Sample(&out, duration + "_sum", label,
           FormatDouble(ep.total_seconds, 6));
    Sample(&out, duration + "_count", label, std::to_string(ep.count));
  }

  const std::string shed = "fairrank_http_shed_total";
  Header(&out, shed, "counter",
         "Requests shed before any work ran, by reason");
  uint64_t shed_total = 0;
  for (const auto& [reason, count] : shed_) {
    Sample(&out, shed, "reason=\"" + JsonEscape(reason) + "\"",
           std::to_string(count));
    shed_total += count;
  }
  Sample(&out, shed, "reason=\"total\"", std::to_string(shed_total));

  Header(&out, "fairrank_http_accepted_total", "counter",
         "Requests admitted past the admission gate");
  Sample(&out, "fairrank_http_accepted_total", "", std::to_string(accepted_));
  Header(&out, "fairrank_http_parse_errors_total", "counter",
         "Connections whose bytes never parsed into a routable request");
  Sample(&out, "fairrank_http_parse_errors_total", "",
         std::to_string(parse_errors_));
  Header(&out, "fairrank_http_keep_alive_reuses_total", "counter",
         "Requests served on an already-used kept-alive connection");
  Sample(&out, "fairrank_http_keep_alive_reuses_total", "",
         std::to_string(keep_alive_reuses_));

  Header(&out, "fairrank_http_in_flight_count", "gauge",
         "Requests currently executing");
  Sample(&out, "fairrank_http_in_flight_count", "",
         std::to_string(in_flight));
  Header(&out, "fairrank_http_queue_depth_count", "gauge",
         "Accepted connections waiting for a worker");
  Sample(&out, "fairrank_http_queue_depth_count", "",
         std::to_string(queue_depth));
  Header(&out, "fairrank_http_draining_info", "gauge",
         "1 while the server is draining for shutdown");
  Sample(&out, "fairrank_http_draining_info", "", draining ? "1" : "0");

  const std::string rcache = "fairrank_response_cache_events_total";
  Header(&out, rcache, "counter", "Response-cache activity, by event");
  Sample(&out, rcache, "event=\"hits\"", std::to_string(response_cache.hits));
  Sample(&out, rcache, "event=\"misses\"",
         std::to_string(response_cache.misses));
  Sample(&out, rcache, "event=\"insertions\"",
         std::to_string(response_cache.insertions));
  Sample(&out, rcache, "event=\"evictions\"",
         std::to_string(response_cache.evictions));
  Header(&out, "fairrank_response_cache_bytes", "gauge",
         "Resident bytes of cached responses");
  Sample(&out, "fairrank_response_cache_bytes", "",
         std::to_string(response_cache.bytes_used));
  Header(&out, "fairrank_response_cache_entries_count", "gauge",
         "Cached responses currently resident");
  Sample(&out, "fairrank_response_cache_entries_count", "",
         std::to_string(response_cache.entries));

  if (process_budget != nullptr) {
    Header(&out, "fairrank_budget_nodes_used_count", "gauge",
           "Process-budget nodes spent");
    Sample(&out, "fairrank_budget_nodes_used_count", "",
           std::to_string(process_budget->nodes_used()));
    Header(&out, "fairrank_budget_nodes_limit_count", "gauge",
           "Process-budget node cap (0 = unlimited)");
    Sample(&out, "fairrank_budget_nodes_limit_count", "",
           std::to_string(process_budget->max_nodes()));
    Header(&out, "fairrank_budget_memory_used_bytes", "gauge",
           "Process-budget approximate memory spent");
    Sample(&out, "fairrank_budget_memory_used_bytes", "",
           std::to_string(process_budget->memory_used_bytes()));
    Header(&out, "fairrank_budget_memory_limit_bytes", "gauge",
           "Process-budget memory cap (0 = unlimited)");
    Sample(&out, "fairrank_budget_memory_limit_bytes", "",
           std::to_string(process_budget->max_memory_bytes()));
  }

  return out;
}

}  // namespace fairrank
