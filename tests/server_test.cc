// End-to-end tests of the fairauditd serving layer: request/response parity
// with the library, structured failure of bad input, chaos (fault-injected
// library failures and stalls) isolated to the afflicted request, admission
// control bounding aggregate work, and graceful drain.
//
// Tests talk to a real FairAuditServer over loopback sockets. Each fixture
// start binds an ephemeral port (port 0), so parallel ctest runs never
// collide. std::thread is used directly here (sanctioned in tests/) to host
// Serve() and to fire concurrent clients.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "data/table.h"
#include "fairness/aggregate.h"
#include "fairness/auditor.h"
#include "fairness/option_flags.h"
#include "fairness/report.h"
#include "fairness/suite.h"
#include "gtest/gtest.h"
#include "marketplace/generator.h"
#include "server/client.h"
#include "server/http.h"
#include "server/server.h"

namespace fairrank {
namespace {

constexpr int kNumWorkersRows = 150;

std::map<std::string, std::unique_ptr<Table>> MakeTables() {
  GeneratorOptions options;
  options.num_workers = kNumWorkersRows;
  options.seed = 7;
  StatusOr<Table> table = GenerateWorkers(options);
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  std::map<std::string, std::unique_ptr<Table>> tables;
  tables["synthetic"] = std::make_unique<Table>(std::move(table).value());
  return tables;
}

/// A started server plus the thread hosting Serve(). Stop() drains and
/// joins; the destructor stops too, so a failing ASSERT can't hang a test.
struct RunningServer {
  std::unique_ptr<FairAuditServer> server;
  std::thread serve_thread;
  Status serve_status = Status::OK();

  ~RunningServer() { Stop(); }

  void Stop() {
    if (!serve_thread.joinable()) return;
    server->RequestShutdown();
    serve_thread.join();
  }
};

std::unique_ptr<RunningServer> StartServer(ServerOptions options) {
  auto running = std::make_unique<RunningServer>();
  running->server = std::make_unique<FairAuditServer>(
      MakeTables(), "synthetic", std::move(options));
  Status started = running->server->Start();
  EXPECT_TRUE(started.ok()) << started.ToString();
  if (!started.ok()) return running;
  FairAuditServer* server = running->server.get();
  Status* status = &running->serve_status;
  running->serve_thread =
      std::thread([server, status] { *status = server->Serve(); });
  return running;
}

ServerOptions DefaultOptions() {
  ServerOptions options;
  options.port = 0;
  options.num_workers = 3;
  options.request_timeout_ceiling_ms = 30000;
  // Off by default so repeated identical requests exercise the full pipeline
  // (fault injection, admission) instead of replaying a cached body; the
  // cache tests opt back in.
  options.response_cache_mb = 0;
  return options;
}

HttpFetchResult Fetch(const RunningServer& running, const std::string& target,
                      int64_t timeout_ms = 30000) {
  StatusOr<HttpFetchResult> result = HttpFetch(
      "127.0.0.1", running.server->port(), "GET", target, "", timeout_ms);
  EXPECT_TRUE(result.ok()) << target << ": " << result.status().ToString();
  return result.ok() ? std::move(result).value() : HttpFetchResult{};
}

/// Strips the wall-clock-dependent fields from an audit JSON body so two
/// runs of the same deterministic audit compare bit-identically.
std::string StripVolatile(std::string body) {
  for (const char* key :
       {"\"seconds\":", "\"nodes_per_sec\":", "\"ingest_seconds\":",
        "\"audit_seconds\":", "\"wall_seconds\":", "\"cell_seconds\":"}) {
    size_t pos = 0;
    while ((pos = body.find(key, pos)) != std::string::npos) {
      size_t end = body.find_first_of(",}", pos);
      if (end == std::string::npos) end = body.size();
      // Leaves a doubled comma behind; both sides of every comparison are
      // stripped by this same function, so the artifacts align.
      body.erase(pos, end - pos);
    }
  }
  return body;
}

TEST(ServerTest, HealthzStatsAndNotFound) {
  auto running = StartServer(DefaultOptions());
  HttpFetchResult health = Fetch(*running, "/healthz");
  EXPECT_EQ(health.status_code, 200);
  EXPECT_NE(health.body.find("\"ok\""), std::string::npos);

  HttpFetchResult stats = Fetch(*running, "/stats");
  EXPECT_EQ(stats.status_code, 200);
  EXPECT_NE(stats.body.find("\"in_flight\":"), std::string::npos);
  EXPECT_NE(stats.body.find("\"budget\":"), std::string::npos);

  HttpFetchResult missing = Fetch(*running, "/nope");
  EXPECT_EQ(missing.status_code, 404);
  EXPECT_NE(missing.body.find("\"code\":\"NotFound\""), std::string::npos);
}

TEST(ServerTest, AuditEndpointMatchesLibrary) {
  auto running = StartServer(DefaultOptions());
  HttpFetchResult response =
      Fetch(*running, "/audit?function=f6&algorithm=unbalanced&seed=3");
  ASSERT_EQ(response.status_code, 200) << response.body;

  // The same audit straight through the library, using the same defaults
  // the handler's flag parsing applies.
  GeneratorOptions gen;
  gen.num_workers = kNumWorkersRows;
  gen.seed = 7;
  StatusOr<Table> table = GenerateWorkers(gen);
  ASSERT_TRUE(table.ok());
  StatusOr<std::unique_ptr<ScoringFunction>> fn = MakeFunctionFromSpec("f6");
  ASSERT_TRUE(fn.ok());
  AuditOptions options;
  options.algorithm = "unbalanced";
  options.seed = 3;
  FairnessAuditor auditor(&table.value());
  StatusOr<AuditResult> direct = auditor.Audit(**fn, options);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  std::string expected = StripVolatile(FormatAuditJson(*direct));
  std::string actual = StripVolatile(response.body);
  // The body ends with a newline-less JSON object; compare modulo trailing
  // whitespace.
  while (!actual.empty() && (actual.back() == '\n' || actual.back() == '\r')) {
    actual.pop_back();
  }
  EXPECT_EQ(actual, expected);
}

TEST(ServerTest, AggregateAuditEndpointMatchesLibrary) {
  auto running = StartServer(DefaultOptions());
  // Ingest shards follow `threads`, clamped to max_request_threads (1
  // here); results are bit-identical across shard counts, so only the
  // echoed thread count in the body depends on the clamp.
  HttpFetchResult response =
      Fetch(*running, "/audit?function=f6&aggregate=1&threads=2");
  ASSERT_EQ(response.status_code, 200) << response.body;

  GeneratorOptions gen;
  gen.num_workers = kNumWorkersRows;
  gen.seed = 7;
  Table table = GenerateWorkers(gen).value();
  StatusOr<std::unique_ptr<ScoringFunction>> fn = MakeFunctionFromSpec("f6");
  ASSERT_TRUE(fn.ok());
  StatusOr<std::vector<double>> scores = (*fn)->ScoreAll(table);
  ASSERT_TRUE(scores.ok());
  StatusOr<CellStore> store = BuildCellStoreParallel(table, *scores);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  AuditOptions options;
  options.algorithm = "balanced";
  StatusOr<AggregateAuditResult> result = AuditAggregate(*store, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  AggregateReportInfo info;
  info.scoring_function = (*fn)->Name();
  info.ingest_threads = 1;

  std::string expected =
      StripVolatile(FormatAggregateAuditJson(*store, *result, info));
  std::string actual = StripVolatile(response.body);
  while (!actual.empty() && (actual.back() == '\n' || actual.back() == '\r')) {
    actual.pop_back();
  }
  EXPECT_EQ(actual, expected);

  // The canonicalizer folds aggregate params into the cache key by
  // iterating FlagNames(), so the aggregate and row-level bodies can never
  // alias: sanity-check they differ.
  HttpFetchResult row_level = Fetch(*running, "/audit?function=f6");
  ASSERT_EQ(row_level.status_code, 200) << row_level.body;
  EXPECT_NE(row_level.body, response.body);
}

TEST(ServerTest, AggregateAuditRunsTheRequestedAlgorithm) {
  auto running = StartServer(DefaultOptions());
  HttpFetchResult response =
      Fetch(*running, "/audit?function=f7&aggregate=1&algorithm=unbalanced");
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("\"algorithm\":\"unbalanced\""),
            std::string::npos)
      << response.body;
  HttpFetchResult unknown =
      Fetch(*running, "/audit?function=f7&aggregate=1&algorithm=bogus");
  EXPECT_EQ(unknown.status_code, 400) << unknown.body;
}

TEST(ServerTest, TruncatedAggregateAuditIsNotCached) {
  ServerOptions options = DefaultOptions();
  options.response_cache_mb = 8;
  auto running = StartServer(options);
  const std::string target =
      "/audit?function=alpha:0.5&aggregate=1&max-nodes=1";
  for (int i = 0; i < 2; ++i) {
    HttpFetchResult response = Fetch(*running, target);
    ASSERT_EQ(response.status_code, 200) << response.body;
    EXPECT_NE(response.body.find("\"truncated\":true"), std::string::npos);
    EXPECT_NE(response.body.find("\"exhaustion_reason\":\"node-budget\""),
              std::string::npos);
  }
  HttpFetchResult stats = Fetch(*running, "/stats");
  EXPECT_NE(stats.body.find("\"insertions\":0,"), std::string::npos)
      << stats.body;
  EXPECT_NE(stats.body.find("\"hits\":0,"), std::string::npos) << stats.body;
}

TEST(ServerTest, BadInputFailsStructurallyNotFatally) {
  auto running = StartServer(DefaultOptions());
  // Unknown query parameter: the misspelled limit must 400, exactly like a
  // misspelled CLI flag.
  HttpFetchResult typo = Fetch(*running, "/audit?function=f6&max-node=5");
  EXPECT_EQ(typo.status_code, 400);
  EXPECT_NE(typo.body.find("unknown flag --max-node"), std::string::npos);

  // Unknown function spec.
  HttpFetchResult bad_fn = Fetch(*running, "/audit?function=nosuch");
  EXPECT_EQ(bad_fn.status_code, 400);
  EXPECT_NE(bad_fn.body.find("unknown function spec"), std::string::npos);

  // Negative limit: rejected before the int64 -> uint64 cast can wrap it
  // into a near-infinite budget.
  HttpFetchResult negative = Fetch(*running, "/audit?function=f6&max-nodes=-1");
  EXPECT_EQ(negative.status_code, 400);
  EXPECT_NE(negative.body.find("--max-nodes must be >= 0"), std::string::npos);

  // Unknown dataset.
  HttpFetchResult no_data = Fetch(*running, "/audit?function=f6&dataset=prod");
  EXPECT_EQ(no_data.status_code, 400);
  EXPECT_NE(no_data.body.find("unknown dataset"), std::string::npos);

  // The process survived all of it.
  EXPECT_EQ(Fetch(*running, "/healthz").status_code, 200);
}

TEST(ServerTest, SuiteEndpointRunsGrid) {
  auto running = StartServer(DefaultOptions());
  HttpFetchResult response = Fetch(
      *running,
      "/suite?functions=alpha:0.25,f6&algorithms=unbalanced,balanced&seed=5");
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("\"cells\""), std::string::npos);
  EXPECT_NE(response.body.find("\"unbalanced\""), std::string::npos);
}

TEST(ServerTest, SuiteEndpointMatchesLibraryAtTheRequestedBeamWidth) {
  auto running = StartServer(DefaultOptions());
  HttpFetchResult response = Fetch(
      *running, "/suite?functions=f6,f7&algorithms=beam&beam_width=8");
  ASSERT_EQ(response.status_code, 200) << response.body;

  GeneratorOptions gen;
  gen.num_workers = kNumWorkersRows;
  gen.seed = 7;
  Table table = GenerateWorkers(gen).value();
  auto f6 = MakeFunctionFromSpec("f6").value();
  auto f7 = MakeFunctionFromSpec("f7").value();
  SuiteOptions options;
  options.algorithms = {"beam"};
  options.audit.beam_width = 8;
  AuditSuite suite(&table);
  SuiteResult direct = suite.Run({f6.get(), f7.get()}, options).value();

  std::string actual = StripVolatile(response.body);
  while (!actual.empty() && (actual.back() == '\n' || actual.back() == '\r')) {
    actual.pop_back();
  }
  EXPECT_EQ(actual, StripVolatile(FormatSuiteJson(direct)));
}

TEST(ServerTest, SuiteRejectsTheSingleAlgorithmFlag) {
  auto running = StartServer(DefaultOptions());
  HttpFetchResult response = Fetch(*running, "/suite?algorithm=merge");
  EXPECT_EQ(response.status_code, 400) << response.body;
  EXPECT_NE(response.body.find("unknown flag --algorithm"), std::string::npos)
      << response.body;
}

TEST(ServerTest, ChaosDivergenceFaultIsolatedToOneRequest) {
  auto running = StartServer(DefaultOptions());
  const std::string target = "/audit?function=f6&algorithm=unbalanced&seed=3";

  // Fault-free baseline for the bit-identical comparison.
  HttpFetchResult baseline = Fetch(*running, target);
  ASSERT_EQ(baseline.status_code, 200);

  // Arm: the next (1st) divergence evaluation process-wide fails. Exactly
  // one of the three concurrent requests hits it; the library surfaces it
  // as an Internal error, the server as a structured 500 on that request
  // alone.
  std::vector<HttpFetchResult> results(3);
  {
    fault::FaultPlan plan;
    plan.fail_divergence_eval = 1;
    fault::ScopedFaultPlan armed(plan);
    std::vector<std::thread> clients;
    clients.reserve(results.size());
    for (size_t i = 0; i < results.size(); ++i) {
      clients.emplace_back([&running, &results, &target, i] {
        StatusOr<HttpFetchResult> r = HttpFetch(
            "127.0.0.1", running->server->port(), "GET", target, "", 30000);
        if (r.ok()) results[i] = std::move(r).value();
      });
    }
    for (std::thread& t : clients) t.join();
  }

  int failures = 0;
  for (const HttpFetchResult& r : results) {
    if (r.status_code == 500) {
      ++failures;
      EXPECT_NE(r.body.find("fault injection"), std::string::npos) << r.body;
    } else {
      ASSERT_EQ(r.status_code, 200) << r.body;
      EXPECT_EQ(StripVolatile(r.body), StripVolatile(baseline.body));
    }
  }
  EXPECT_EQ(failures, 1);

  // The process survived the chaos.
  EXPECT_EQ(Fetch(*running, "/healthz").status_code, 200);
}

TEST(ServerTest, ChaosStallWithDeadlineReturnsTruncated) {
  auto running = StartServer(DefaultOptions());
  // Stall the first parallel chunk well past the request deadline: the
  // request must still come back — 200 with truncated: true — instead of
  // hanging or erroring.
  fault::FaultPlan plan;
  plan.stall_chunk = 0;
  plan.stall_ms = 150;
  fault::ScopedFaultPlan armed(plan);
  HttpFetchResult response = Fetch(
      *running, "/audit?function=f6&algorithm=unbalanced&timeout-ms=40");
  ASSERT_EQ(response.status_code, 200) << response.body;
  EXPECT_NE(response.body.find("\"truncated\":true"), std::string::npos)
      << response.body;
}

TEST(ServerTest, AdmissionShedsOnceProcessBudgetExhausts) {
  ServerOptions options = DefaultOptions();
  options.max_total_nodes = 10;  // Tiny aggregate allowance.
  options.retry_after_ms = 333;
  auto running = StartServer(options);

  // First request: admitted (budget untouched), runs, and truncates when
  // the process-level parent budget trips mid-search — a bounded answer,
  // not an error.
  HttpFetchResult first =
      Fetch(*running, "/audit?function=f6&algorithm=unbalanced");
  ASSERT_EQ(first.status_code, 200) << first.body;
  EXPECT_NE(first.body.find("\"truncated\":true"), std::string::npos);

  // From now on admission must latch: no headroom, so audit work is shed
  // with a structured 503 + retry_after_ms before any search runs.
  for (int i = 0; i < 2; ++i) {
    HttpFetchResult shed =
        Fetch(*running, "/audit?function=f6&algorithm=unbalanced");
    EXPECT_EQ(shed.status_code, 503) << shed.body;
    EXPECT_NE(shed.body.find("budget_exhausted"), std::string::npos);
    EXPECT_NE(shed.body.find("\"retry_after_ms\":333"), std::string::npos);
  }

  // /stats proves the aggregate bound: nodes_used may overshoot max_nodes
  // by at most the final bulk charge of the one admitted request (the
  // budget's documented granularity), never by another admitted search.
  HttpFetchResult stats = Fetch(*running, "/stats");
  ASSERT_EQ(stats.status_code, 200);
  size_t pos = stats.body.find("\"nodes_used\":");
  ASSERT_NE(pos, std::string::npos);
  uint64_t nodes_used = std::stoull(stats.body.substr(pos + 13));
  EXPECT_LE(nodes_used, 10u + 64u) << stats.body;
  EXPECT_NE(stats.body.find("\"budget_exhausted\":2"), std::string::npos)
      << stats.body;

  // /healthz and /stats stay available even with the budget gone.
  EXPECT_EQ(Fetch(*running, "/healthz").status_code, 200);
}

TEST(ServerTest, OverloadShedsWith429) {
  ServerOptions options = DefaultOptions();
  options.num_workers = 3;
  options.max_inflight_audits = 1;
  auto running = StartServer(options);

  // One slow audit (exhaustive, deadline-bounded) occupies the single
  // in-flight slot; a concurrent audit must shed 429 "overloaded" while
  // /healthz keeps answering.
  std::thread slow([&running] {
    StatusOr<HttpFetchResult> r = HttpFetch(
        "127.0.0.1", running->server->port(), "GET",
        "/audit?function=f6&algorithm=exhaustive&timeout-ms=800", "", 30000);
    EXPECT_TRUE(r.ok());
    if (r.ok()) {
      EXPECT_EQ(r->status_code, 200) << r->body;
    }
  });

  // Poll until the slow request is in flight, then fire the contender. A
  // contender sent earlier could take the slot first and shed the slow
  // request instead.
  bool slow_in_flight = false;
  for (int attempt = 0; attempt < 1000 && !slow_in_flight; ++attempt) {
    std::string stats = Fetch(*running, "/stats").body;
    slow_in_flight = stats.find("\"in_flight\":1,") != std::string::npos;
    if (!slow_in_flight) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(slow_in_flight);
  bool shed_seen = false;
  for (int attempt = 0; attempt < 50 && !shed_seen; ++attempt) {
    HttpFetchResult contender =
        Fetch(*running, "/audit?function=f6&algorithm=unbalanced");
    if (contender.status_code == 429) {
      EXPECT_NE(contender.body.find("overloaded"), std::string::npos);
      shed_seen = true;
    }
  }
  EXPECT_TRUE(shed_seen);
  EXPECT_EQ(Fetch(*running, "/healthz").status_code, 200);
  slow.join();
}

// ---------------------------------------------------------------------------
// HTTP parsing hardening: pure string-level tests of the edge cases the
// wire-level tests below exercise end to end.

TEST(HttpParseTest, DuplicateContentLengthRejected) {
  StatusOr<HttpRequest> r = ParseRequestHead(
      "GET / HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nContent-Length: 3");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("duplicate content-length"),
            std::string::npos);
}

TEST(HttpParseTest, DuplicateTransferEncodingRejected) {
  StatusOr<HttpRequest> r = ParseRequestHead(
      "POST / HTTP/1.1\r\nTransfer-Encoding: identity\r\n"
      "Transfer-Encoding: chunked");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("duplicate transfer-encoding"),
            std::string::npos);
}

TEST(HttpParseTest, OtherDuplicateHeadersMergeAsList) {
  StatusOr<HttpRequest> r = ParseRequestHead(
      "GET / HTTP/1.1\r\nAccept: a\r\nAccept: b");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->headers.at("accept"), "a, b");
}

TEST(HttpParseTest, HeaderCountLimitIsOutOfRange) {
  HttpSizeLimits limits;
  limits.max_header_count = 2;
  StatusOr<HttpRequest> r = ParseRequestHead(
      "GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3", limits);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

TEST(HttpParseTest, TransferEncodingIdentityListAccepted) {
  StatusOr<HttpRequest> r = ParseRequestHead(
      "POST / HTTP/1.1\r\nTransfer-Encoding: identity , identity\r\n"
      "Content-Length: 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  StatusOr<size_t> length = ContentLength(*r, HttpSizeLimits{});
  ASSERT_TRUE(length.ok()) << length.status().ToString();
  EXPECT_EQ(*length, 2u);
}

TEST(HttpParseTest, ChunkedTransferEncodingIsUnimplemented) {
  StatusOr<HttpRequest> r =
      ParseRequestHead("POST / HTTP/1.1\r\nTransfer-Encoding: chunked");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  StatusOr<size_t> length = ContentLength(*r, HttpSizeLimits{});
  ASSERT_FALSE(length.ok());
  EXPECT_EQ(length.status().code(), StatusCode::kUnimplemented);
}

TEST(HttpParseTest, KeepAliveDefaultsFollowHttpVersion) {
  auto parse = [](const char* head) {
    StatusOr<HttpRequest> r = ParseRequestHead(head);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return std::move(r).value();
  };
  EXPECT_TRUE(RequestWantsKeepAlive(parse("GET / HTTP/1.1")));
  EXPECT_FALSE(
      RequestWantsKeepAlive(parse("GET / HTTP/1.1\r\nConnection: close")));
  EXPECT_FALSE(RequestWantsKeepAlive(parse("GET / HTTP/1.0")));
  EXPECT_TRUE(RequestWantsKeepAlive(
      parse("GET / HTTP/1.0\r\nConnection: keep-alive")));
}

// ---------------------------------------------------------------------------
// Wire-level tests: raw sockets (sanctioned in tests/) for malformed input
// the HttpClient cannot be convinced to send.

/// Sends raw bytes on a fresh blocking connection and reads to EOF.
std::string RawRoundTrip(int port, const std::string& wire) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                    sizeof(addr)),
            0);
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n = send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  for (;;) {
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<size_t>(n));
  }
  close(fd);
  return response;
}

TEST(ServerTest, DuplicateContentLengthIsStructured400OnTheWire) {
  auto running = StartServer(DefaultOptions());
  std::string response = RawRoundTrip(
      running->server->port(),
      "GET /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n"
      "Content-Length: 0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 400 "), std::string::npos) << response;
  EXPECT_NE(response.find("duplicate content-length"), std::string::npos)
      << response;
  // The error tore the connection down (recv hit EOF above) and the server
  // survived.
  EXPECT_EQ(Fetch(*running, "/healthz").status_code, 200);
}

TEST(ServerTest, TooManyHeadersIs431OnTheWire) {
  auto running = StartServer(DefaultOptions());
  std::string wire = "GET /healthz HTTP/1.1\r\nHost: t\r\n";
  for (int i = 0; i < 80; ++i) {
    wire += "X-Padding-" + std::to_string(i) + ": v\r\n";
  }
  wire += "\r\n";
  std::string response = RawRoundTrip(running->server->port(), wire);
  EXPECT_NE(response.find("HTTP/1.1 431 "), std::string::npos) << response;
  EXPECT_EQ(Fetch(*running, "/healthz").status_code, 200);
}

TEST(ServerTest, ChunkedBodyIs501OnTheWire) {
  auto running = StartServer(DefaultOptions());
  std::string response = RawRoundTrip(
      running->server->port(),
      "POST /audit HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n"
      "\r\n0\r\n\r\n");
  EXPECT_NE(response.find("HTTP/1.1 501 "), std::string::npos) << response;
  EXPECT_NE(response.find("not supported"), std::string::npos) << response;
}

// ---------------------------------------------------------------------------
// Keep-alive and the response cache.

TEST(ServerTest, KeepAliveServesTwoRequestsOnOneConnection) {
  auto running = StartServer(DefaultOptions());
  const std::string target = "/audit?function=f6&algorithm=unbalanced&seed=3";

  // Two fresh connections (the pre-keep-alive cost model)...
  HttpFetchResult fresh1 = Fetch(*running, target);
  HttpFetchResult fresh2 = Fetch(*running, target);
  ASSERT_EQ(fresh1.status_code, 200);

  // ...and two requests on ONE kept-alive connection.
  HttpClient client("127.0.0.1", running->server->port());
  StatusOr<HttpFetchResult> kept1 = client.Fetch("GET", target, "", 30000);
  StatusOr<HttpFetchResult> kept2 = client.Fetch("GET", target, "", 30000);
  ASSERT_TRUE(kept1.ok()) << kept1.status().ToString();
  ASSERT_TRUE(kept2.ok()) << kept2.status().ToString();
  EXPECT_EQ(client.connects(), 1u) << "second request reopened a connection";
  ASSERT_EQ(kept1->status_code, 200);
  ASSERT_EQ(kept2->status_code, 200);

  // Bit-identical to the fresh-connection bodies modulo wall-clock fields
  // (the cache is off here, so every response is computed independently).
  EXPECT_EQ(StripVolatile(kept1->body), StripVolatile(fresh1.body));
  EXPECT_EQ(StripVolatile(kept2->body), StripVolatile(fresh2.body));

  // /stats counts the reuse.
  HttpFetchResult stats = Fetch(*running, "/stats");
  EXPECT_EQ(stats.body.find("\"keep_alive_reuses\":0"), std::string::npos)
      << stats.body;
}

TEST(ServerTest, ResponseCacheHitIsByteIdentical) {
  ServerOptions options = DefaultOptions();
  options.response_cache_mb = 8;
  auto running = StartServer(options);
  const std::string target = "/audit?function=f6&algorithm=unbalanced&seed=3";

  HttpFetchResult first = Fetch(*running, target);   // Miss: computes.
  HttpFetchResult second = Fetch(*running, target);  // Hit: replays.
  ASSERT_EQ(first.status_code, 200);
  ASSERT_EQ(second.status_code, 200);
  // Byte-identical INCLUDING the wall-clock fields — only a replay of the
  // stored body can achieve that; an independent recomputation would differ
  // in "seconds".
  EXPECT_EQ(second.body, first.body);

  // The canonicalized key ignores flag spelling: '_' vs '-' and query order
  // hit the same entry.
  HttpFetchResult spelled =
      Fetch(*running, "/audit?algorithm=unbalanced&seed=3&function=f6");
  EXPECT_EQ(spelled.body, first.body);

  HttpFetchResult stats = Fetch(*running, "/stats");
  EXPECT_NE(stats.body.find("\"response_cache\":{"), std::string::npos);
  EXPECT_EQ(stats.body.find("\"hits\":0,"), std::string::npos) << stats.body;
}

TEST(ServerTest, ResponseCacheConcurrentIdenticalRequestsAreDeterministic) {
  ServerOptions options = DefaultOptions();
  options.response_cache_mb = 8;
  auto running = StartServer(options);
  const std::string target =
      "/audit?function=alpha:0.5&algorithm=unbalanced&seed=5";

  // A burst of identical requests races misses against the first insert;
  // every response must be a complete 200 regardless of who won.
  std::vector<HttpFetchResult> results(8);
  std::vector<std::thread> clients;
  clients.reserve(results.size());
  for (size_t i = 0; i < results.size(); ++i) {
    clients.emplace_back([&running, &results, &target, i] {
      StatusOr<HttpFetchResult> r = HttpFetch(
          "127.0.0.1", running->server->port(), "GET", target, "", 30000);
      if (r.ok()) results[i] = std::move(r).value();
    });
  }
  for (std::thread& t : clients) t.join();
  for (const HttpFetchResult& r : results) {
    ASSERT_EQ(r.status_code, 200) << r.body;
    EXPECT_EQ(StripVolatile(r.body), StripVolatile(results[0].body));
  }

  // Once the dust settles the cache serves one canonical body: two
  // sequential fetches are byte-identical.
  HttpFetchResult settled1 = Fetch(*running, target);
  HttpFetchResult settled2 = Fetch(*running, target);
  EXPECT_EQ(settled1.body, settled2.body);
}

TEST(ServerTest, ResponseCacheEvictsUnderByteCapAndChargesBudget) {
  ServerOptions options = DefaultOptions();
  options.response_cache_mb = 1;  // Small cap so distinct keys overflow it.
  auto running = StartServer(options);

  // Distinct seeds are distinct cache keys; enough of them must overflow
  // the 1 MB cap (bodies run a few hundred bytes each) and trigger LRU
  // eviction.
  for (int seed = 1; seed <= 1800; ++seed) {
    HttpFetchResult r = Fetch(
        *running, "/audit?function=f6&algorithm=unbalanced&seed=" +
                      std::to_string(seed));
    ASSERT_EQ(r.status_code, 200) << r.body;
  }

  HttpFetchResult stats = Fetch(*running, "/stats");
  ASSERT_EQ(stats.status_code, 200);
  size_t pos = stats.body.find("\"response_cache\":{");
  ASSERT_NE(pos, std::string::npos);
  std::string cache_json =
      stats.body.substr(pos, stats.body.find('}', pos) - pos);
  EXPECT_EQ(cache_json.find("\"evictions\":0"), std::string::npos)
      << cache_json;
  EXPECT_EQ(cache_json.find("\"insertions\":0"), std::string::npos)
      << cache_json;

  // Resident bytes respect the cap...
  size_t bytes_pos = cache_json.find("\"bytes_used\":");
  ASSERT_NE(bytes_pos, std::string::npos);
  uint64_t bytes_used = std::stoull(cache_json.substr(bytes_pos + 13));
  EXPECT_LE(bytes_used, uint64_t{1} << 20) << cache_json;
  EXPECT_GT(bytes_used, 0u) << cache_json;

  // ...and cache memory was charged to the process budget: the cumulative
  // memory axis must have absorbed at least the currently-resident bytes.
  size_t mem_pos = stats.body.find("\"memory_used_bytes\":");
  ASSERT_NE(mem_pos, std::string::npos);
  uint64_t memory_used = std::stoull(stats.body.substr(mem_pos + 20));
  EXPECT_GE(memory_used, bytes_used) << stats.body;
}

// ---------------------------------------------------------------------------
// Telemetry surfaces: /metrics, request ids, access logs, slow-request dumps.

TEST(ServerTest, MetricsEndpointServesPrometheusFamilies) {
  auto running = StartServer(DefaultOptions());
  // Drive the pipeline once so the audit/pipeline counters are live.
  HttpFetchResult audit =
      Fetch(*running, "/audit?function=f6&algorithm=unbalanced&seed=3");
  ASSERT_EQ(audit.status_code, 200) << audit.body;

  HttpFetchResult metrics = Fetch(*running, "/metrics");
  ASSERT_EQ(metrics.status_code, 200);
  EXPECT_NE(metrics.head.find("text/plain; version=0.0.4"), std::string::npos)
      << metrics.head;
  // Server-layer families.
  EXPECT_NE(metrics.body.find(
                "fairrank_http_requests_total{endpoint=\"/audit\"} 1"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("# TYPE fairrank_http_request_duration_seconds"),
            std::string::npos);
  EXPECT_NE(metrics.body.find(
                "fairrank_http_request_duration_seconds{endpoint=\"/audit\","
                "quantile=\"0.5\"}"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("fairrank_http_shed_total{reason=\"total\"} 0"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("fairrank_http_in_flight_count"),
            std::string::npos);
  // Process-registry families fed by the library pipeline. The registry is
  // process-global (cumulative across every test in this binary), so assert
  // presence and non-zero rather than exact values.
  EXPECT_NE(metrics.body.find("# TYPE fairrank_audits_total counter"),
            std::string::npos);
  EXPECT_EQ(metrics.body.find("fairrank_audits_total 0\n"),
            std::string::npos)
      << metrics.body;
  EXPECT_NE(metrics.body.find("fairrank_pipeline_emd_computations_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("fairrank_audit_search_seconds_count"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("fairrank_budget_nodes_used_count"),
            std::string::npos);
}

TEST(ServerTest, StatsAndMetricsQuantilesReadTheSameSketch) {
  auto running = StartServer(DefaultOptions());
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(
        Fetch(*running, "/audit?function=f6&algorithm=unbalanced&seed=3")
            .status_code,
        200);
  }

  // /stats reports milliseconds (3 decimals), /metrics seconds (6 decimals)
  // — 1 µs resolution both ways, read off the SAME per-endpoint GK sketch.
  // The /stats fetch itself lands in the "/stats" sketch, so the "/audit"
  // sketch is identical across the two scrapes.
  HttpFetchResult stats = Fetch(*running, "/stats");
  HttpFetchResult metrics = Fetch(*running, "/metrics");
  ASSERT_EQ(stats.status_code, 200);
  ASSERT_EQ(metrics.status_code, 200);

  size_t audit_pos = stats.body.find("\"/audit\"");
  ASSERT_NE(audit_pos, std::string::npos) << stats.body;
  size_t p50_pos = stats.body.find("\"p50_ms\":", audit_pos);
  ASSERT_NE(p50_pos, std::string::npos) << stats.body;
  const double stats_p50_ms = std::stod(stats.body.substr(p50_pos + 9));

  const std::string needle =
      "fairrank_http_request_duration_seconds{endpoint=\"/audit\","
      "quantile=\"0.5\"} ";
  size_t metric_pos = metrics.body.find(needle);
  ASSERT_NE(metric_pos, std::string::npos) << metrics.body;
  const double metrics_p50_seconds =
      std::stod(metrics.body.substr(metric_pos + needle.size()));

  EXPECT_GT(stats_p50_ms, 0.0);
  EXPECT_NEAR(stats_p50_ms, metrics_p50_seconds * 1000.0, 0.002);
}

TEST(ServerTest, RequestIdIsEchoedOrMintedOnEveryResponse) {
  auto running = StartServer(DefaultOptions());
  const int port = running->server->port();

  // A valid client-supplied id comes back verbatim.
  StatusOr<HttpFetchResult> echoed =
      HttpFetch("127.0.0.1", port, "GET", "/healthz", "", 30000,
                "X-Request-Id: client-id-42\r\n");
  ASSERT_TRUE(echoed.ok());
  EXPECT_NE(echoed->head.find("X-Request-Id: client-id-42"),
            std::string::npos)
      << echoed->head;

  // Errors echo too — the id is how a client correlates its failure.
  StatusOr<HttpFetchResult> error =
      HttpFetch("127.0.0.1", port, "GET", "/nope", "", 30000,
                "X-Request-Id: err-7\r\n");
  ASSERT_TRUE(error.ok());
  EXPECT_EQ(error->status_code, 404);
  EXPECT_NE(error->head.find("X-Request-Id: err-7"), std::string::npos)
      << error->head;

  // No client id: the server mints one.
  HttpFetchResult minted = Fetch(*running, "/healthz");
  EXPECT_NE(minted.head.find("X-Request-Id: req-"), std::string::npos)
      << minted.head;

  // An invalid id (too long) is replaced by a minted one, not echoed.
  const std::string oversized(65, 'x');
  StatusOr<HttpFetchResult> replaced =
      HttpFetch("127.0.0.1", port, "GET", "/healthz", "", 30000,
                "X-Request-Id: " + oversized + "\r\n");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced->head.find(oversized), std::string::npos);
  EXPECT_NE(replaced->head.find("X-Request-Id: req-"), std::string::npos)
      << replaced->head;
}

TEST(ServerTest, ShedResponsesCarryTheRequestId) {
  ServerOptions options = DefaultOptions();
  options.max_total_nodes = 10;
  auto running = StartServer(options);

  // Exhaust the process budget, then a shed 503 must still echo the id.
  ASSERT_EQ(Fetch(*running, "/audit?function=f6&algorithm=unbalanced")
                .status_code,
            200);
  StatusOr<HttpFetchResult> shed = HttpFetch(
      "127.0.0.1", running->server->port(), "GET",
      "/audit?function=f6&algorithm=unbalanced", "", 30000,
      "X-Request-Id: shed-correlate-1\r\n");
  ASSERT_TRUE(shed.ok());
  EXPECT_EQ(shed->status_code, 503) << shed->body;
  EXPECT_NE(shed->head.find("X-Request-Id: shed-correlate-1"),
            std::string::npos)
      << shed->head;
}

TEST(ServerTest, AccessLogAndSlowRequestDump) {
  ServerOptions options = DefaultOptions();
  options.access_log = true;
  options.slow_request_ms = 1;  // Any audit exceeds 1 ms: every one dumps.
  std::mutex log_mutex;
  std::vector<std::string> lines;
  options.log_sink = [&log_mutex, &lines](const std::string& line) {
    std::lock_guard<std::mutex> lock(log_mutex);
    lines.push_back(line);
  };
  auto running = StartServer(std::move(options));

  // Deadline-bounded exhaustive search: runs ~50 ms (then truncates), which
  // reliably crosses the 1 ms slow threshold; a plain unbalanced audit on
  // 150 rows can finish in under a millisecond.
  StatusOr<HttpFetchResult> response = HttpFetch(
      "127.0.0.1", running->server->port(), "GET",
      "/audit?function=f6&algorithm=exhaustive&timeout-ms=50", "", 30000,
      "X-Request-Id: slow-1\r\n");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status_code, 200) << response->body;
  running->Stop();  // Flushes: no more sink calls after join.

  std::lock_guard<std::mutex> lock(log_mutex);
  bool saw_access_line = false;
  bool saw_slow_dump = false;
  for (const std::string& line : lines) {
    if (line.find("\"request_id\":\"slow-1\"") != std::string::npos &&
        line.find("\"path\":\"/audit\"") != std::string::npos) {
      saw_access_line = true;
      EXPECT_NE(line.find("\"status\":200"), std::string::npos) << line;
      EXPECT_NE(line.find("\"trace_id\":\""), std::string::npos) << line;
    }
    if (line.find("slow request slow-1") != std::string::npos) {
      saw_slow_dump = true;
      // The dump is the span tree: audit root with search/report children.
      EXPECT_NE(line.find("- audit "), std::string::npos) << line;
      EXPECT_NE(line.find("  - search "), std::string::npos) << line;
      EXPECT_NE(line.find("totals:"), std::string::npos) << line;
    }
  }
  EXPECT_TRUE(saw_access_line) << lines.size() << " lines captured";
  EXPECT_TRUE(saw_slow_dump) << lines.size() << " lines captured";
}

TEST(ServerTest, DrainClosesIdleKeptAliveConnectionPromptly) {
  ServerOptions options = DefaultOptions();
  options.keep_alive_idle_ms = 30000;  // Idle expiry alone would take 30 s.
  options.drain_grace_ms = 200;
  auto running = StartServer(options);

  // Park a kept-alive connection in the between-requests idle wait.
  HttpClient client("127.0.0.1", running->server->port());
  StatusOr<HttpFetchResult> first = client.Fetch("GET", "/healthz", "", 5000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->status_code, 200);

  // Drain must close that idle connection promptly — well before the 30 s
  // idle deadline — or Serve() (and this Stop()) would hang on the worker
  // parked in ReadRequest.
  Stopwatch watch;
  running->server->RequestShutdown();
  running->serve_thread.join();
  EXPECT_LT(watch.ElapsedMillis(), 5000.0);
  EXPECT_TRUE(running->serve_status.ok())
      << running->serve_status.ToString();

  // The kept-alive socket is dead; a fresh request finds no listener.
  StatusOr<HttpFetchResult> after = client.Fetch("GET", "/healthz", "", 500);
  EXPECT_FALSE(after.ok());
}

TEST(ServerTest, DrainCancelsStragglersAndExitsCleanly) {
  ServerOptions options = DefaultOptions();
  options.drain_grace_ms = 50;
  auto running = StartServer(options);

  // A request that would run for ~20s without intervention; drain's grace
  // window (50 ms) expires first, cancellation fires, and the request comes
  // back truncated with reason "cancelled" instead of being dropped.
  std::thread straggler([&running] {
    StatusOr<HttpFetchResult> r = HttpFetch(
        "127.0.0.1", running->server->port(), "GET",
        "/audit?function=f6&algorithm=exhaustive&timeout-ms=20000", "", 30000);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (r.ok()) {
      EXPECT_EQ(r->status_code, 200) << r->body;
      EXPECT_NE(r->body.find("\"truncated\":true"), std::string::npos)
          << r->body;
      EXPECT_NE(r->body.find("\"exhaustion_reason\":\"cancelled\""),
                std::string::npos)
          << r->body;
    }
  });

  // Let the straggler get admitted before draining.
  for (int attempt = 0; attempt < 500; ++attempt) {
    HttpFetchResult stats = Fetch(*running, "/stats");
    if (stats.body.find("\"in_flight\":1") != std::string::npos) break;
  }

  running->server->RequestShutdown();
  running->serve_thread.join();
  EXPECT_TRUE(running->serve_status.ok())
      << running->serve_status.ToString();
  straggler.join();

  // The final stats flush still works after Serve() returned.
  std::string final_stats = running->server->StatsJson();
  EXPECT_NE(final_stats.find("\"draining\":true"), std::string::npos);
  EXPECT_NE(final_stats.find("\"/audit\""), std::string::npos);
}

}  // namespace
}  // namespace fairrank
