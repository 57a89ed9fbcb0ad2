// server_closed_loop: an in-process fairauditd over the workload's dataset,
// driven by keep-alive clients in the same process. Each client waits for
// every reply before sending its next request.

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/str_util.h"
#include "data/csv.h"
#include "decomposed_audit.h"
#include "fairness/auditor.h"
#include "fairness/option_flags.h"
#include "fairness/report.h"
#include "harness.h"
#include "layers.h"
#include "marketplace/worker.h"
#include "server/client.h"
#include "server/handlers.h"
#include "server/http.h"
#include "server/server.h"

namespace ledger {

namespace {

using fairrank::FairAuditServer;
using fairrank::HttpClient;
using fairrank::HttpFetchResult;
using fairrank::StatusOr;

constexpr int kServerWorkers = 2;
constexpr int kClients = 2;
constexpr uint64_t kResponseCacheMb = 1;
constexpr int kSetupReps = 21;
constexpr int64_t kTimeoutMs = 10000;
constexpr const char* kDataset = "workers";
/// Repeats target one of the client's last kRepeatWindow requests, which
/// are still resident in the response cache.
constexpr size_t kRepeatWindow = 32;

/// Request kinds: f7..f9 x {balanced, unbalanced}. f6 is left out: its
/// search stops after one split, so its audits take ~60% of the others'
/// time, and with one request in four a ~0.1 ms cache hit the median fell
/// into the gap between f6 and the rest and jumped run to run.
constexpr size_t kKinds = 6;

/// One request the workload sends.
struct Request {
  std::string target;
  size_t kind = 0;
  int64_t repeat_of = -1;  ///< Index of the earlier request it repeats.
};

std::string KindFunction(size_t kind, uint64_t seed) {
  return "f" + std::to_string(7 + kind / 2) + ":" + std::to_string(seed);
}

const char* KindAlgorithm(size_t kind) {
  return kind % 2 == 0 ? "balanced" : "unbalanced";
}

/// Client `c`'s deterministic request sequence: three in four carry a fresh
/// `seed` parameter (a response-cache miss), one in four repeats a recent
/// request of the same client (a hit).
class RequestPlan {
 public:
  RequestPlan(uint64_t run_seed, size_t client)
      : run_seed_(run_seed), client_(client),
        state_(run_seed * 0x9E3779B97F4A7C15ull + client + 1) {}

  Request Next(const std::vector<Request>& sent) {
    const size_t j = sent.size();
    if (j % 4 == 3) {
      const size_t window = std::min(kRepeatWindow, j);
      const size_t back = 1 + static_cast<size_t>(NextRandom() % window);
      Request repeat = sent[j - back];
      while (repeat.repeat_of >= 0) repeat = sent[repeat.repeat_of];
      repeat.repeat_of = static_cast<int64_t>(j - back);
      return repeat;
    }
    Request fresh;
    fresh.kind = fresh_count_ % kKinds;
    fresh.target = "/audit?function=" + KindFunction(fresh.kind, run_seed_) +
                   "&algorithm=" + KindAlgorithm(fresh.kind) + "&seed=" +
                   std::to_string(client_ * 1000000000ull + fresh_count_);
    ++fresh_count_;
    return fresh;
  }

 private:
  uint64_t NextRandom() {  // splitmix64
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }

  uint64_t run_seed_;
  size_t client_;
  uint64_t state_;
  uint64_t fresh_count_ = 0;
};

/// Zeroes the wall-clock fields of an audit JSON body so two runs of one
/// computation compare equal.
std::string StripWallClock(std::string body) {
  for (const std::string key : {"\"seconds\":", "\"nodes_per_sec\":"}) {
    size_t at = body.find(key);
    if (at == std::string::npos) continue;
    at += key.size();
    size_t end = body.find_first_of(",}", at);
    body.replace(at, end - at, "0");
  }
  return body;
}

/// What one client saw in the timed phase.
struct ClientLog {
  std::vector<Request> sent;
  /// Bodies of the last kRepeatWindow requests (request j at j %
  /// kRepeatWindow), for the repeat checks.
  std::vector<std::string> recent_bodies =
      std::vector<std::string>(kRepeatWindow);
  OpTimes times;  ///< From this client's own timed-phase start.
  std::vector<std::string> failures;
  uint64_t failed = 0;
  uint64_t connects = 0;
  double seconds = 0.0;
};

std::unique_ptr<FairAuditServer> MakeServer(fairrank::Table table) {
  std::map<std::string, std::unique_ptr<fairrank::Table>> tables;
  tables[kDataset] = std::make_unique<fairrank::Table>(std::move(table));
  fairrank::ServerOptions options;
  options.port = 0;
  options.num_workers = kServerWorkers;
  options.response_cache_mb = kResponseCacheMb;
  options.request_timeout_ceiling_ms = kTimeoutMs;
  return std::make_unique<FairAuditServer>(std::move(tables), kDataset,
                                           std::move(options));
}

/// Runs `server` on one pool task and `callers` tasks that call it on the
/// others; the last caller to finish starts the drain.
fairrank::Status ServeWhile(FairAuditServer* server, size_t callers,
                            const std::function<void(size_t)>& call) {
  fairrank::Status served = fairrank::Status::OK();
  std::atomic<size_t> done{0};
  fairrank::ParallelForEach(
      callers + 1, static_cast<int>(callers + 1), [&](size_t task) {
        if (task == 0) {
          served = server->Serve();
          return;
        }
        call(task - 1);
        if (done.fetch_add(1) + 1 == callers) server->RequestShutdown();
      });
  return served;
}

/// Value of one sample line of Prometheus text ("name{labels} value").
double MetricValue(const std::string& text, const std::string& series) {
  for (const std::string& line : fairrank::Split(text, '\n')) {
    if (line.rfind(series + " ", 0) != 0) continue;
    double value = 0.0;
    if (fairrank::ParseDouble(fairrank::Trim(line.substr(series.size())),
                              &value)) {
      return value;
    }
  }
  return 0.0;
}

/// Replays `sent` in order against the library directly: parse, cache key,
/// handler, and a decomposed audit for every fresh request.
void DirectCalls(const fairrank::Table& table, const ClientLog& log,
                 const std::vector<std::string>& reference, double seconds,
                 WorkloadResult* out, OpLayers* layers,
                 std::vector<double>* overhead) {
  fairrank::ServerEnv env;
  env.datasets[kDataset] = &table;
  env.default_dataset = kDataset;
  env.timeout_ceiling_ms = kTimeoutMs;
  fairrank::FairnessAuditor auditor(&table);
  const uint64_t start = NowNanos();
  for (size_t j = 0; j < log.sent.size(); ++j) {
    if ((NowNanos() - start) / 1e9 >= seconds) break;
    const Request& request = log.sent[j];
    SpanLog spans(true);
    int64_t op = spans.Begin("op");
    const std::string head = "GET " + request.target +
                             " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
    int64_t parse_span = spans.Begin("server.parse", op);
    StatusOr<fairrank::HttpRequest> parsed = fairrank::ParseRequestHead(head);
    spans.End(parse_span);
    int64_t key_span = spans.Begin("server.canonical_key", op);
    StatusOr<std::string> key =
        parsed.ok() ? fairrank::CanonicalRequestKey(env, *parsed)
                    : StatusOr<std::string>(parsed.status());
    spans.End(key_span);
    ++out->attempted;
    if (!key.ok()) {
      out->Fail("direct parse/key: " + key.status().ToString());
      continue;
    }
    double handler_ms = 0.0;
    if (request.repeat_of < 0) {
      const uint64_t t0 = NowNanos();
      int64_t handler_span = spans.Begin("server.handler", op);
      fairrank::HandlerResult handled = fairrank::HandleAudit(env, *parsed);
      spans.End(handler_span);
      handler_ms = (NowNanos() - t0) / 1e6;
      if (handled.response.status != 200 ||
          StripWallClock(handled.response.body) != reference[request.kind]) {
        out->Fail("direct handler body differs from the library's");
        continue;
      }
    }
    spans.End(op);
    // The rest of the client-visible latency is HTTP framing, sockets,
    // queueing, admission and the response cache.
    const double direct_ms = spans.TotalMs()["op"];
    spans.AddMeasured(
        "server.transport", -1,
        static_cast<uint64_t>(
            std::max(0.0, (log.times.end_s[j] - log.times.start_s[j]) * 1e3 -
                              direct_ms) *
            1e6));
    OpSample sample = SampleOf(spans);
    if (request.repeat_of >= 0) {
      layers->Add(std::move(sample));
      continue;
    }

    // The handler's audit taken apart, standing in for the handler's
    // inner time (flag parsing and JSON stay with the handler).
    fairrank::FlagParser flags =
        fairrank::FlagParser::FromPairs(parsed->query).value();
    fairrank::AuditOptions options =
        fairrank::AuditOptionsFromFlags(flags).value();
    std::unique_ptr<fairrank::ScoringFunction> fn =
        fairrank::MakeFunctionFromSpec(flags.GetString("function", "")).value();
    const uint64_t t1 = NowNanos();
    StatusOr<fairrank::AuditResult> audited = auditor.Audit(*fn, options);
    const double untraced_ms = (NowNanos() - t1) / 1e6;
    SpanLog audit_spans(true);
    DecomposedStats stats;
    const uint64_t t2 = NowNanos();
    StatusOr<fairrank::AuditResult> decomposed =
        RunDecomposedAudit(table, *fn, options, &audit_spans, &stats);
    const double traced_ms = (NowNanos() - t2) / 1e6;
    out->attempted += 2;
    if (!audited.ok() || !decomposed.ok() ||
        !CompareWithAudit(*decomposed, *audited).empty()) {
      out->Fail("decomposed audit differs from Audit()");
      continue;
    }
    overhead->push_back(traced_ms / untraced_ms - 1.0);
    OpSample inner = SampleOf(audit_spans);
    AddAuditCounts(stats, audited->nodes_visited, &inner);
    double inner_ms = 0.0;
    for (const auto& [name, ms] : inner.self_ms) {
      if (name == "op") continue;
      sample.self_ms[name] += ms;
      inner_ms += ms;
    }
    for (const auto& [name, ms] : inner.total_ms) sample.total_ms[name] += ms;
    for (const auto& [name, v] : inner.counts) sample.counts[name] += v;
    sample.self_ms["server.handler"] = std::max(0.0, handler_ms - inner_ms);
    layers->Add(std::move(sample));
  }
}

}  // namespace

WorkloadResult RunServerClosedLoop(const RunConfig& config) {
  WorkloadResult out;
  StatusOr<fairrank::Schema> schema = fairrank::MakePaperWorkerSchema();
  if (!schema.ok()) {
    out.Fail(schema.status().ToString());
    return out;
  }

  // Set-up, several times: load the CSV, construct and start the server,
  // and wait for /healthz to answer.
  std::vector<double> setup_seconds;
  std::vector<double> load_seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const uint64_t t0 = NowNanos();
    StatusOr<fairrank::Table> table =
        fairrank::ReadCsvFile(config.csv_path, *schema);
    load_seconds.push_back((NowNanos() - t0) / 1e9);
    if (!table.ok()) {
      out.Fail("csv load: " + table.status().ToString());
      return out;
    }
    std::unique_ptr<FairAuditServer> server =
        MakeServer(std::move(table).value());
    fairrank::Status started = server->Start();
    if (!started.ok()) {
      out.Fail("server start: " + started.ToString());
      return out;
    }
    bool healthy = false;
    fairrank::Status served = ServeWhile(server.get(), 1, [&](size_t) {
      StatusOr<HttpFetchResult> health = fairrank::HttpFetch(
          "127.0.0.1", server->port(), "GET", "/healthz", "", kTimeoutMs);
      healthy = health.ok() && health->status_code == 200;
      setup_seconds.push_back((NowNanos() - t0) / 1e9);
    });
    if (!served.ok() || !healthy) {
      out.Fail("server set-up: /healthz did not answer 200");
      return out;
    }
  }

  // The server the workload runs against, and the library's reference
  // answer for each of the 8 request kinds.
  StatusOr<fairrank::Table> loaded =
      fairrank::ReadCsvFile(config.csv_path, *schema);
  if (!loaded.ok()) {
    out.Fail("csv load: " + loaded.status().ToString());
    return out;
  }
  const fairrank::Table table_copy = *loaded;
  const size_t population = table_copy.num_rows();
  std::vector<std::string> reference(kKinds);
  {
    fairrank::FairnessAuditor auditor(&table_copy);
    for (size_t kind = 0; kind < kKinds; ++kind) {
      // The options a request of this kind parses to (its seed parameter
      // only seeds randomized baselines, so every seed shares one answer).
      fairrank::AuditOptions options =
          fairrank::AuditOptionsFromFlags(
              fairrank::FlagParser::FromPairs(
                  {{"algorithm", KindAlgorithm(kind)}})
                  .value())
              .value();
      std::unique_ptr<fairrank::ScoringFunction> fn =
          fairrank::MakeFunctionFromSpec(KindFunction(kind, config.seed))
              .value();
      StatusOr<fairrank::AuditResult> result = auditor.Audit(*fn, options);
      if (!result.ok()) {
        out.Fail("reference audit: " + result.status().ToString());
        return out;
      }
      reference[kind] = StripWallClock(fairrank::FormatAuditJson(*result));
      if (config.corrupt_expectation) reference[kind] += " ";
    }
  }
  std::unique_ptr<FairAuditServer> server =
      MakeServer(std::move(loaded).value());
  fairrank::Status started = server->Start();
  if (!started.ok()) {
    out.Fail("server start: " + started.ToString());
    return out;
  }
  const int port = server->port();

  // The traced run gives half its time to HTTP and half to direct calls.
  const double http_seconds = config.trace ? config.seconds / 2 : config.seconds;
  std::vector<ClientLog> logs(kClients);
  std::string metrics_text;
  std::atomic<size_t> finished{0};
  fairrank::Status served = ServeWhile(server.get(), kClients, [&](size_t c) {
    ClientLog& log = logs[c];
    HttpClient client("127.0.0.1", port);
    // Warm-up, discarded: each kind once.
    for (size_t kind = 0; kind < kKinds; ++kind) {
      const std::string target =
          "/audit?function=" + KindFunction(kind, config.seed) +
          "&algorithm=" + KindAlgorithm(kind) + "&seed=" +
          std::to_string(999000000000ull + c);
      StatusOr<HttpFetchResult> r = client.Fetch("GET", target, "",
                                                 kTimeoutMs);
      if (!r.ok() || r->status_code != 200) {
        ++log.failed;
        log.failures.push_back("warm-up request failed");
      }
    }
    RequestPlan plan(config.seed, c);
    const uint64_t start = NowNanos();
    while ((NowNanos() - start) / 1e9 < http_seconds) {
      Request request = plan.Next(log.sent);
      const uint64_t t0 = NowNanos();
      StatusOr<HttpFetchResult> r = client.Fetch("GET", request.target, "",
                                                 kTimeoutMs);
      log.times.Add(start, t0, NowNanos());
      std::string body;
      std::string bad;
      if (!r.ok()) {
        bad = "transport: " + r.status().ToString();
      } else if (r->status_code != 200) {
        bad = "HTTP " + std::to_string(r->status_code);
      } else if (request.repeat_of >= 0) {
        // A cache hit replays the original body byte for byte.
        if (r->body != log.recent_bodies[request.repeat_of % kRepeatWindow]) {
          bad = "cache hit body differs from the original";
        }
      } else if (StripWallClock(r->body) != reference[request.kind]) {
        bad = "body differs from the library's FormatAuditJson";
      }
      if (r.ok()) body = std::move(r->body);
      if (!bad.empty()) {
        ++log.failed;
        if (log.failures.size() < 4) log.failures.push_back(bad);
      }
      log.recent_bodies[log.sent.size() % kRepeatWindow] = std::move(body);
      log.sent.push_back(std::move(request));
    }
    log.seconds = (NowNanos() - start) / 1e9;
    if (finished.fetch_add(1) + 1 == static_cast<size_t>(kClients)) {
      StatusOr<HttpFetchResult> scrape =
          client.Fetch("GET", "/metrics", "", kTimeoutMs);
      if (scrape.ok() && scrape->status_code == 200) {
        metrics_text = std::move(scrape->body);
      }
    }
    log.connects = client.connects();
  });
  if (!served.ok()) out.Fail("serve: " + served.ToString());
  if (metrics_text.empty()) out.Fail("/metrics scrape failed");

  std::vector<OpTimes> times;
  std::map<std::string, std::vector<double>> kind_ms;
  double seconds = 0.0;
  uint64_t connects = 0;
  for (const ClientLog& log : logs) {
    for (size_t j = 0; j < log.sent.size(); ++j) {
      const Request& r = log.sent[j];
      const std::string kind =
          r.repeat_of >= 0 ? "hit"
                           : std::string(KindAlgorithm(r.kind)) + "/f" +
                                 std::to_string(7 + r.kind / 2);
      kind_ms[kind].push_back(
          (log.times.end_s[j] - log.times.start_s[j]) * 1e3);
    }
    out.attempted += log.sent.size();
    out.failed += log.failed;
    for (const std::string& f : log.failures) out.failures.push_back(f);
    times.push_back(log.times);
    seconds = std::max(seconds, log.seconds);
    connects += log.connects;
  }

  const std::string audit = "{endpoint=\"/audit\"";
  const double hits = MetricValue(
      metrics_text, "fairrank_response_cache_events_total{event=\"hits\"}");
  const double misses = MetricValue(
      metrics_text, "fairrank_response_cache_events_total{event=\"misses\"}");
  out.Set("setup_s", Median(setup_seconds), "s");
  out.Set("data.csv_load_ms", Median(load_seconds) * 1e3, "ms");
  out.Set("peak_rss_mb", PeakRssMb(), "MiB");
  // 24 requests: three rounds of the fresh kinds plus 6 repeats.
  SetLatencyMetrics(times, 24, seconds, &out);
  ReportKindLatency(kind_ms, &out);
  if (config.trace) {
    out.Set("server.side_p50_ms",
            1e3 * MetricValue(metrics_text,
                              "fairrank_http_request_duration_seconds" +
                                  audit + ",quantile=\"0.5\"}"),
            "ms");
    out.Set("server.side_p99_ms",
            1e3 * MetricValue(metrics_text,
                              "fairrank_http_request_duration_seconds" +
                                  audit + ",quantile=\"0.99\"}"),
            "ms");
    out.Set("server.response_cache_hit_ratio",
            hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
    out.Set("server.response_cache_evictions",
            MetricValue(metrics_text,
                        "fairrank_response_cache_events_total{event="
                        "\"evictions\"}"),
            "count");
    out.Set("server.shed",
            MetricValue(metrics_text,
                        "fairrank_http_shed_total{reason=\"total\"}"),
            "count");
    out.Set("server.connects", static_cast<double>(connects), "count");

    OpLayers layers;
    std::vector<double> overhead;
    DirectCalls(table_copy, logs[0], reference, config.seconds - http_seconds,
                &out, &layers, &overhead);
    out.Set("trace.overhead_pct", 100.0 * Median(overhead), "%");
    layers.Report(&out);
    // Parse and key derivation are microsecond-scale: report them in us.
    for (const char* name : {"server.parse", "server.canonical_key"}) {
      auto it = out.metrics.find(std::string(name) + "_ms");
      if (it == out.metrics.end()) continue;
      out.Set(std::string(name) + "_us", it->second.value * 1e3, "us");
      out.metrics.erase(it);
    }
  }
  out.Prov("population", static_cast<double>(population));
  out.Prov("setup_reps", kSetupReps);
  out.Prov("server_workers", kServerWorkers);
  out.Prov("clients", kClients);
  out.Prov("request_threads", 1);
  out.Prov("response_cache_mb", static_cast<double>(kResponseCacheMb));
  out.Prov("response_cache_hits", hits);
  out.Prov("response_cache_misses", misses);
  out.Prov("connects", static_cast<double>(connects));
  return out;
}

}  // namespace ledger
