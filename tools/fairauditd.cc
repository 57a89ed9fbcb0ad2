// fairauditd — long-running audit service over the fairrank library.
//
// Serve mode (default):
//   fairauditd --input workers.csv[,more.csv...] [--port 8080] [--host IP]
//              [--threads 4] [--max-inflight 4] [--queue-depth 16]
//              [--timeout-ceiling-ms 10000] [--default-timeout-ms 0]
//              [--max-nodes 0] [--max-memory-mb 0] [--retry-after-ms 250]
//              [--drain-ms 2000] [--io-timeout-ms 5000]
//              [--no-keep-alive] [--keep-alive-idle-ms 5000]
//              [--max-requests-per-conn 100] [--response-cache-mb 8]
//              [--request-threads 1] [--slow-request-ms 0] [--access-log]
//   fairauditd --workers 2000 [--seed 7] ...        (synthetic dataset)
//
// Datasets load once at startup into immutable shared tables; each request
// audits against them concurrently. `--max-nodes` / `--max-memory-mb` are
// *process-wide aggregate* budgets: every request's budget chains to them,
// and once they run dry the server sheds audit work with 503 +
// retry_after_ms instead of growing without bound. `--port 0` binds an
// ephemeral port; the bound port is printed on the "listening" line.
//
// Endpoints: /audit and /suite take the fairaudit CLI's flags as query (or
// POST form) parameters plus `dataset=<name>`; /healthz, /stats, and
// /metrics (Prometheus text) are always served, even while draining.
// `--access-log` prints one JSON line per request; `--slow-request-ms N`
// traces /audit//suite requests and dumps the span tree of any slower than
// N ms. SIGINT/SIGTERM start a graceful
// drain: stop accepting, wait up to --drain-ms for in-flight requests, then
// cancel cooperatively (stragglers return truncated best-so-far bodies),
// flush a final stats line, and exit 0.
//
// Client mode (smoke tests, no curl dependency):
//   fairauditd --fetch "/audit?function=f6" --port 8080 [--host IP]
//              [--method GET|POST] [--body "a=1&b=2"] [--fetch-timeout-ms N]
//              [--fetch-count 1]
// prints "status <code>" then the body, and exits 0 for any well-formed
// HTTP response (the caller asserts on the printed status/body).
// --fetch-count N > 1 issues the request N times over ONE kept-alive
// connection (HttpClient), printing each response and finally
// "connects <n>" — n stays 1 when the server honored keep-alive.

#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/shutdown.h"
#include "common/str_util.h"
#include "data/csv.h"
#include "fairness/option_flags.h"
#include "marketplace/generator.h"
#include "marketplace/worker.h"
#include "server/client.h"
#include "server/server.h"

namespace fairrank {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "fairauditd: %s\n", status.ToString().c_str());
  return 1;
}

const std::vector<std::string>& KnownFlags() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      // Serve mode.
      "input", "workers", "seed", "port", "host", "threads", "max-inflight",
      "queue-depth", "timeout-ceiling-ms", "default-timeout-ms", "max-nodes",
      "max-memory-mb", "retry-after-ms", "drain-ms", "io-timeout-ms",
      "no-keep-alive", "keep-alive-idle-ms", "max-requests-per-conn",
      "response-cache-mb", "request-threads", "slow-request-ms", "access-log",
      // Client mode.
      "fetch", "method", "body", "fetch-timeout-ms", "fetch-count",
  };
  return *names;
}

/// "data/workers.csv" -> "workers": the dataset name requests use.
std::string DatasetName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string base = slash == std::string::npos ? path : path.substr(slash + 1);
  size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  return base;
}

/// Largest TCP port.
constexpr int64_t kMaxPort = 65535;

StatusOr<int64_t> NonNegativeInt(const FlagParser& flags,
                                 const std::string& name, int64_t fallback) {
  FAIRRANK_ASSIGN_OR_RETURN(int64_t value, flags.GetInt(name, fallback));
  if (value < 0) {
    return Status::InvalidArgument("--" + name + " must be >= 0");
  }
  return value;
}

int RunFetch(const FlagParser& flags) {
  StatusOr<int> port = GetBoundedInt(flags, "port", 8080, 0, kMaxPort);
  if (!port.ok()) return Fail(port.status());
  auto timeout = flags.GetInt("fetch-timeout-ms", 30000);
  if (!timeout.ok()) return Fail(timeout.status());
  auto count = flags.GetInt("fetch-count", 1);
  if (!count.ok()) return Fail(count.status());
  if (*count < 1) {
    return Fail(Status::InvalidArgument("--fetch-count must be >= 1"));
  }
  std::string host = flags.GetString("host", "127.0.0.1");
  std::string method = flags.GetString("method", "GET");
  std::string target = flags.GetString("fetch", "/healthz");
  std::string body = flags.GetString("body", "");

  if (*count == 1) {
    StatusOr<HttpFetchResult> result = HttpFetch(
        host, *port, method, target, body, *timeout);
    if (!result.ok()) return Fail(result.status());
    std::printf("status %d\n%s\n", result->status_code, result->body.c_str());
    return 0;
  }

  // Repeated fetches ride one kept-alive connection; the trailing
  // "connects" line exposes how many TCP connects that actually took.
  HttpClient client(host, *port);
  for (int64_t i = 0; i < *count; ++i) {
    StatusOr<HttpFetchResult> result =
        client.Fetch(method, target, body, *timeout);
    if (!result.ok()) return Fail(result.status());
    std::printf("status %d\n%s\n", result->status_code, result->body.c_str());
  }
  std::printf("connects %llu\n",
              static_cast<unsigned long long>(client.connects()));
  return 0;
}

StatusOr<std::map<std::string, std::unique_ptr<Table>>> LoadDatasets(
    const FlagParser& flags, std::string* default_name) {
  std::map<std::string, std::unique_ptr<Table>> tables;
  std::string input = flags.GetString("input", "");
  if (!input.empty()) {
    FAIRRANK_ASSIGN_OR_RETURN(Schema schema, MakePaperWorkerSchema());
    for (const std::string& raw : Split(input, ',')) {
      std::string path(Trim(raw));
      FAIRRANK_ASSIGN_OR_RETURN(Table table, ReadCsvFile(path, schema));
      std::string name = DatasetName(path);
      if (default_name->empty()) *default_name = name;
      if (tables.count(name) != 0) {
        return Status::InvalidArgument("duplicate dataset name '" + name +
                                       "' from --input");
      }
      tables[name] = std::make_unique<Table>(std::move(table));
    }
    return tables;
  }
  FAIRRANK_ASSIGN_OR_RETURN(int64_t workers,
                            NonNegativeInt(flags, "workers", 0));
  if (workers == 0) {
    return Status::InvalidArgument(
        "pass --input <csv>[,<csv>...] or --workers <n> (synthetic data)");
  }
  GeneratorOptions options;
  options.num_workers = static_cast<size_t>(workers);
  FAIRRANK_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 42));
  options.seed = static_cast<uint64_t>(seed);
  FAIRRANK_ASSIGN_OR_RETURN(Table table, GenerateWorkers(options));
  *default_name = "synthetic";
  tables["synthetic"] = std::make_unique<Table>(std::move(table));
  return tables;
}

StatusOr<ServerOptions> OptionsFromFlags(const FlagParser& flags) {
  ServerOptions options;
  options.host = flags.GetString("host", "127.0.0.1");
  FAIRRANK_ASSIGN_OR_RETURN(options.port,
                            GetBoundedInt(flags, "port", 8080, 0, kMaxPort));
  FAIRRANK_ASSIGN_OR_RETURN(options.num_workers,
                            GetBoundedInt(flags, "threads", 4, 0, kIntMax));
  FAIRRANK_ASSIGN_OR_RETURN(
      options.max_inflight_audits,
      GetBoundedInt(flags, "max-inflight", 0, 0, kIntMax));
  FAIRRANK_ASSIGN_OR_RETURN(int64_t queue_depth,
                            NonNegativeInt(flags, "queue-depth", 16));
  options.queue_capacity = static_cast<size_t>(queue_depth);
  FAIRRANK_ASSIGN_OR_RETURN(
      options.request_timeout_ceiling_ms,
      NonNegativeInt(flags, "timeout-ceiling-ms", 10000));
  FAIRRANK_ASSIGN_OR_RETURN(options.default_timeout_ms,
                            NonNegativeInt(flags, "default-timeout-ms", 0));
  FAIRRANK_ASSIGN_OR_RETURN(int64_t max_nodes,
                            NonNegativeInt(flags, "max-nodes", 0));
  options.max_total_nodes = static_cast<uint64_t>(max_nodes);
  FAIRRANK_ASSIGN_OR_RETURN(int64_t max_memory_mb,
                            NonNegativeInt(flags, "max-memory-mb", 0));
  options.max_total_memory_mb = static_cast<uint64_t>(max_memory_mb);
  FAIRRANK_ASSIGN_OR_RETURN(options.retry_after_ms,
                            NonNegativeInt(flags, "retry-after-ms", 250));
  FAIRRANK_ASSIGN_OR_RETURN(options.drain_grace_ms,
                            NonNegativeInt(flags, "drain-ms", 2000));
  FAIRRANK_ASSIGN_OR_RETURN(options.io_timeout_ms,
                            NonNegativeInt(flags, "io-timeout-ms", 5000));
  FAIRRANK_ASSIGN_OR_RETURN(bool no_keep_alive,
                            flags.GetBool("no-keep-alive", false));
  options.keep_alive = !no_keep_alive;
  FAIRRANK_ASSIGN_OR_RETURN(options.keep_alive_idle_ms,
                            NonNegativeInt(flags, "keep-alive-idle-ms", 5000));
  FAIRRANK_ASSIGN_OR_RETURN(
      options.max_requests_per_connection,
      GetBoundedInt(flags, "max-requests-per-conn", 100, 0, kIntMax));
  FAIRRANK_ASSIGN_OR_RETURN(int64_t cache_mb,
                            NonNegativeInt(flags, "response-cache-mb", 8));
  options.response_cache_mb = static_cast<uint64_t>(cache_mb);
  FAIRRANK_ASSIGN_OR_RETURN(
      options.max_request_threads,
      GetBoundedInt(flags, "request-threads", 1, 0, kIntMax));
  FAIRRANK_ASSIGN_OR_RETURN(options.slow_request_ms,
                            NonNegativeInt(flags, "slow-request-ms", 0));
  FAIRRANK_ASSIGN_OR_RETURN(options.access_log,
                            flags.GetBool("access-log", false));
  if (options.access_log || options.slow_request_ms > 0) {
    // The library never touches stdio; the daemon is where log lines land
    // on stdout (one flush per line so tail -f and test greps see them).
    options.log_sink = [](const std::string& line) {
      std::printf("%s\n", line.c_str());
      std::fflush(stdout);
    };
  }
  options.external_shutdown = [] { return ShutdownRequested(); };
  return options;
}

int Main(int argc, char** argv) {
  StatusOr<FlagParser> flags = FlagParser::Parse(argc - 1, argv + 1);
  if (!flags.ok()) return Fail(flags.status());
  Status known = ValidateKnownFlags(*flags, KnownFlags());
  if (!known.ok()) return Fail(known);

  if (flags->Has("fetch")) return RunFetch(*flags);

  std::string default_name;
  StatusOr<std::map<std::string, std::unique_ptr<Table>>> tables =
      LoadDatasets(*flags, &default_name);
  if (!tables.ok()) return Fail(tables.status());
  StatusOr<ServerOptions> options = OptionsFromFlags(*flags);
  if (!options.ok()) return Fail(options.status());

  InstallShutdownHandlers();
  FairAuditServer server(std::move(tables).value(), default_name,
                         std::move(options).value());
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  std::printf("fairauditd listening on %s:%d (dataset %s)\n",
              flags->GetString("host", "127.0.0.1").c_str(), server.port(),
              default_name.c_str());
  std::fflush(stdout);

  Status served = server.Serve();
  if (!served.ok()) return Fail(served);
  std::printf("fairauditd drained (signal %d)\nfinal_stats %s\n",
              ShutdownSignal(), server.StatsJson().c_str());
  return 0;
}

}  // namespace
}  // namespace fairrank

int main(int argc, char** argv) { return fairrank::Main(argc, argv); }
