#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <utility>

#include "common/parallel.h"
#include "common/str_util.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "fairness/report.h"

namespace fairrank {

namespace {

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError("fcntl(O_NONBLOCK): " +
                           std::string(std::strerror(errno)));
  }
  return Status::OK();
}

/// Waits for `events` on `fd` until `deadline`, in short slices so drain
/// cancellation is noticed promptly. True when the fd is ready.
bool PollFd(int fd, short events, const Deadline& deadline,
            const CancellationToken& cancel) {
  for (;;) {
    if (cancel.cancel_requested()) return false;
    double remaining = deadline.RemainingSeconds();
    if (remaining <= 0) return false;
    int slice_ms = 100;
    if (remaining * 1000.0 < slice_ms) {
      slice_ms = static_cast<int>(remaining * 1000.0) + 1;
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    int n = poll(&pfd, 1, slice_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n > 0 && (pfd.revents & (events | POLLHUP | POLLERR)) != 0) {
      return true;
    }
  }
}

/// Maps a request-read failure to the HTTP status of the early error reply.
/// OutOfRange is the parser's "header fields too large/too many" signal
/// (431); ResourceExhausted is an oversized body (413); Unimplemented is
/// well-formed HTTP the server chooses not to speak — unsupported methods
/// and non-identity transfer codings (501).
int HttpStatusForReadError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kResourceExhausted:
      return 413;
    case StatusCode::kOutOfRange:
      return 431;
    case StatusCode::kDeadlineExceeded:
      return 408;
    case StatusCode::kUnimplemented:
      return 501;
    default:
      return 400;
  }
}

/// A client-supplied X-Request-Id is echoed only when it is 1..64 bytes of
/// printable ASCII — anything else (binary, oversized, empty) is replaced
/// with a server-minted id so log lines and response headers stay clean.
bool IsValidRequestId(const std::string& id) {
  if (id.empty() || id.size() > 64) return false;
  for (char c : id) {
    if (c < 0x20 || c > 0x7E) return false;
  }
  return true;
}

/// One JSON access-log line. `trace_id` is empty for untraced requests.
std::string AccessLogLine(const std::string& request_id,
                          const std::string& method, const std::string& path,
                          int status, double duration_ms,
                          const std::string& trace_id) {
  std::string out = "{\"request_id\":\"" + JsonEscape(request_id) + "\",";
  out += "\"method\":\"" + JsonEscape(method) + "\",";
  out += "\"path\":\"" + JsonEscape(path) + "\",";
  out += "\"status\":" + std::to_string(status) + ",";
  out += "\"duration_ms\":" + FormatDouble(duration_ms, 3);
  if (!trace_id.empty()) {
    out += ",\"trace_id\":\"" + JsonEscape(trace_id) + "\"";
  }
  out += "}";
  return out;
}

}  // namespace

FairAuditServer::FairAuditServer(
    std::map<std::string, std::unique_ptr<Table>> tables,
    std::string default_name, ServerOptions options)
    : tables_(std::move(tables)),
      options_(std::move(options)),
      num_workers_(options_.num_workers > 0 ? options_.num_workers
                                            : HardwareThreads()),
      process_budget_(options_.max_total_nodes,
                      options_.max_total_memory_mb << 20),
      admission_(options_.max_inflight_audits > 0
                     ? options_.max_inflight_audits
                     : num_workers_,
                 &process_budget_),
      response_cache_(options_.response_cache_mb << 20, &process_budget_),
      queue_(options_.queue_capacity) {
  env_.default_dataset = std::move(default_name);
  for (const auto& [name, table] : tables_) {
    env_.datasets[name] = table.get();
  }
  env_.timeout_ceiling_ms = options_.request_timeout_ceiling_ms;
  env_.default_timeout_ms = options_.default_timeout_ms;
  env_.process_budget = &process_budget_;
  env_.drain_cancel = drain_source_.token();
  env_.max_request_threads =
      options_.max_request_threads > 0 ? options_.max_request_threads : 1;
  env_.retry_after_ms = options_.retry_after_ms;
}

FairAuditServer::~FairAuditServer() {
  if (listen_fd_ >= 0) close(listen_fd_);
}

Status FairAuditServer::Start() {
  if (tables_.empty()) {
    return Status::InvalidArgument("server needs at least one dataset");
  }
  if (env_.datasets.find(env_.default_dataset) == env_.datasets.end()) {
    return Status::InvalidArgument("default dataset '" + env_.default_dataset +
                                   "' is not among the loaded datasets");
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError("socket: " + std::string(std::strerror(errno)));
  }
  int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("cannot parse host '" + options_.host +
                                   "' as an IPv4 address");
  }
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) < 0) {
    return Status::IOError("bind " + options_.host + ":" +
                           std::to_string(options_.port) + ": " +
                           std::strerror(errno));
  }
  if (listen(listen_fd_, 64) < 0) {
    return Status::IOError("listen: " + std::string(std::strerror(errno)));
  }
  FAIRRANK_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  struct sockaddr_in bound;
  socklen_t bound_len = sizeof(bound);
  if (getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&bound),
                  &bound_len) < 0) {
    return Status::IOError("getsockname: " +
                           std::string(std::strerror(errno)));
  }
  port_ = ntohs(bound.sin_port);
  return Status::OK();
}

Status FairAuditServer::Serve() {
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition("Serve() called before Start()");
  }
  try {
    // One pool carries the whole server: task 0 is the listener (and drain
    // coordinator), tasks 1..N serve requests. ParallelForEach is the
    // repo's single audited thread source.
    ParallelForEach(static_cast<size_t>(num_workers_) + 1, num_workers_ + 1,
                    [this](size_t i) {
                      if (i == 0) {
                        ListenerLoop();
                      } else {
                        WorkerLoop();
                      }
                    });
  } catch (const std::exception& e) {
    return Status::Internal(std::string("server pool failed: ") + e.what());
  }
  return Status::OK();
}

void FairAuditServer::RequestShutdown() {
  draining_.store(true, std::memory_order_relaxed);
}

void FairAuditServer::ListenerLoop() {
  while (!draining_.load(std::memory_order_relaxed)) {
    if (options_.external_shutdown && options_.external_shutdown()) {
      RequestShutdown();
      break;
    }
    struct pollfd pfd;
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int n = poll(&pfd, 1, 100);
    if (n < 0 && errno != EINTR) break;
    if (n <= 0) continue;
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    // Shed at the door with a canned 503 so the client learns to back off
    // instead of hanging. The two causes are distinct operational signals:
    // queue_full is load (clients should back off), fd_setup_failed is a
    // local kernel/resource problem (backing off won't help; an operator
    // should look). The shed send is bounded by shed_send_timeout_ms —
    // task 0 is the accept loop and must not be held hostage by one slow
    // client for a full io_timeout.
    bool fd_ready = SetNonBlocking(fd).ok();
    if (fd_ready && queue_.TryPush(fd)) continue;
    const char* reason = fd_ready ? "queue_full" : "fd_setup_failed";
    stats_.RecordShed(reason);
    HttpResponse shed = MakeErrorResponse(
        503, "ResourceExhausted", reason,
        std::string("request shed: ") + reason, options_.retry_after_ms);
    // The listener sheds before reading the request, so there is no client
    // id to echo — a minted one still lets the client quote something.
    shed.request_id = NextRequestId();
    SendResponse(fd, shed,
                 Deadline::AfterMillis(options_.shed_send_timeout_ms > 0
                                           ? options_.shed_send_timeout_ms
                                           : 1));
    close(fd);
  }

  // Drain: stop accepting, let queued connections flush (they are shed as
  // "draining"), give in-flight requests a grace window, then cancel
  // cooperatively so stragglers return truncated best-so-far answers.
  close(listen_fd_);
  listen_fd_ = -1;
  queue_.Close();
  Deadline grace = options_.drain_grace_ms > 0
                       ? Deadline::AfterMillis(options_.drain_grace_ms)
                       : Deadline::AfterMillis(0);
  if (!admission_.WaitUntilIdle(grace)) {
    drain_source_.RequestCancellation();
  }
}

void FairAuditServer::WorkerLoop() {
  while (true) {
    std::optional<int> fd = queue_.Pop();
    if (!fd.has_value()) return;
    ServeConnection(*fd);
  }
}

void FairAuditServer::ServeConnection(int fd) {
  std::string carry;  // Bytes read past the previous request (pipelining).
  int served = 0;
  for (;;) {
    auto start = std::chrono::steady_clock::now();
    StatusOr<HttpRequest> request = ReadRequest(fd, &carry, served > 0);
    if (!request.ok()) {
      const Status& status = request.status();
      // Cancelled marks the quiet ends of a kept-alive connection — peer
      // closed between requests, idle deadline, drain — not a protocol
      // error: close without a response and without polluting the
      // parse-error counter.
      if (status.code() != StatusCode::kCancelled) {
        stats_.RecordParseError();
        HttpResponse error = MakeErrorResponse(
            HttpStatusForReadError(status), StatusCodeToString(status.code()),
            "bad_request", status.message());
        // The request never parsed, so a client-supplied id (if any) is
        // unreachable — mint one so even malformed requests get a handle.
        error.request_id = NextRequestId();
        SendResponse(fd, error, IoDeadline());
      }
      break;
    }
    if (served > 0) stats_.RecordConnectionReuse();

    // Every response carries an X-Request-Id: the client's own (when valid)
    // so its logs and ours share a key, a minted one otherwise.
    std::string request_id;
    auto id_header = request->headers.find("x-request-id");
    if (id_header != request->headers.end() &&
        IsValidRequestId(id_header->second)) {
      request_id = id_header->second;
    } else {
      request_id = NextRequestId();
    }

    // Per-request tracing only when slow-request diagnosis asked for it and
    // the endpoint actually runs the pipeline; everything else keeps the
    // null-trace fast path.
    std::unique_ptr<TraceContext> trace;
    if (options_.slow_request_ms > 0 &&
        (request->path == "/audit" || request->path == "/suite")) {
      trace = std::make_unique<TraceContext>();
    }

    // Decide the connection's future before routing so the response frames
    // it: the client must opt in (HTTP/1.1 default), the per-connection
    // request cap must leave room, and a draining server closes as fast as
    // it can.
    bool keep = options_.keep_alive && RequestWantsKeepAlive(*request) &&
                (options_.max_requests_per_connection <= 0 ||
                 served + 1 < options_.max_requests_per_connection) &&
                !draining_.load(std::memory_order_relaxed);
    HandlerResult result = Route(*request, trace.get());
    result.response.keep_alive = keep;
    result.response.request_id = request_id;
    SendResponse(fd, result.response, IoDeadline());

    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    // Known endpoints keyed as-is; everything else collapses into one
    // bucket so a path-scanning client cannot grow the stats map
    // unboundedly.
    const std::string& path = request->path;
    bool known = path == "/audit" || path == "/suite" || path == "/healthz" ||
                 path == "/stats" || path == "/metrics";
    stats_.RecordRequest(known ? path : "(other)", result.response.status,
                         seconds, result.truncated);

    const double duration_ms = seconds * 1000.0;
    if (options_.log_sink) {
      if (options_.access_log) {
        options_.log_sink(AccessLogLine(
            request_id, request->method, path, result.response.status,
            duration_ms, trace != nullptr ? trace->trace_id() : ""));
      }
      if (trace != nullptr && duration_ms >=
              static_cast<double>(options_.slow_request_ms)) {
        options_.log_sink("slow request " + request_id + " (" +
                          FormatDouble(duration_ms, 3) + " ms >= " +
                          std::to_string(options_.slow_request_ms) +
                          " ms threshold)\n" + trace->FormatTree());
      }
    }

    ++served;
    if (!keep) break;
  }
  close(fd);
}

HandlerResult FairAuditServer::Route(const HttpRequest& request,
                                     TraceContext* trace) {
  HandlerResult result;
  bool is_draining = draining_.load(std::memory_order_relaxed);
  if (request.path == "/metrics") {
    // Observability must outlive admission: /metrics bypasses the gate and
    // is served even while draining, exactly when an operator most needs
    // it. Process-registry families (pipeline counters, audit histograms)
    // come first, then the server's own request/shed/response-cache/budget
    // families — both from the same state /stats snapshots.
    result.response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    result.response.body =
        MetricsRegistry::Global().RenderPrometheus() +
        stats_.ToPrometheus(&process_budget_, admission_.in_flight(),
                            is_draining, queue_.size(),
                            response_cache_.Snapshot());
    return result;
  }
  if (request.path == "/healthz") {
    if (is_draining) {
      result.response =
          MakeErrorResponse(503, "ResourceExhausted", "draining",
                            "server is draining", options_.retry_after_ms);
    } else {
      result.response.body = "{\"status\":\"ok\"}";
    }
    return result;
  }
  if (request.path == "/stats") {
    result.response.body = StatsJson();
    return result;
  }
  if (request.path == "/audit" || request.path == "/suite") {
    // Response cache first: a hit replays a completed success without
    // touching admission — no evaluation runs, so there is nothing to
    // gate, charge, or shed. Skipped while draining (the drain contract is
    // "stop answering audit work", cached or not). A request whose flags
    // fail to parse gets no key and flows to the handler for its
    // structured 400.
    std::string cache_key;
    if (response_cache_.enabled() && !is_draining) {
      StatusOr<std::string> key = CanonicalRequestKey(env_, request);
      if (key.ok()) {
        cache_key = std::move(key).value();
        if (response_cache_.Find(cache_key, &result.response)) return result;
      }
    }
    AdmissionVerdict verdict = admission_.TryAdmit(is_draining);
    if (verdict != AdmissionVerdict::kAdmit) {
      stats_.RecordShed(AdmissionVerdictToString(verdict));
      // Overload (a transient in-flight spike) is the client's cue to
      // retry soon: 429. Draining and an exhausted process budget are
      // server-side unavailability: 503.
      int status = verdict == AdmissionVerdict::kShedOverload ? 429 : 503;
      result.response = MakeErrorResponse(
          status, "ResourceExhausted", AdmissionVerdictToString(verdict),
          std::string("request shed: ") + AdmissionVerdictToString(verdict),
          options_.retry_after_ms);
      return result;
    }
    stats_.RecordAccepted();
    result = request.path == "/audit" ? HandleAudit(env_, request, trace)
                                      : HandleSuite(env_, request, trace);
    admission_.Release();
    // Only complete successes are replayable: an error is cheap to
    // recompute and a truncated body froze a transient budget/deadline
    // state that the next identical request might not hit.
    if (!cache_key.empty() && result.response.status == 200 &&
        !result.truncated) {
      response_cache_.Insert(cache_key, result.response);
    }
    return result;
  }
  result.response = MakeErrorResponse(
      404, "NotFound", "unknown_path",
      "unknown path '" + request.path +
          "' (endpoints: /audit, /suite, /healthz, /stats, /metrics)");
  return result;
}

Deadline FairAuditServer::IoDeadline() const {
  return options_.io_timeout_ms > 0
             ? Deadline::AfterMillis(options_.io_timeout_ms)
             : Deadline::Infinite();
}

StatusOr<HttpRequest> FairAuditServer::ReadRequest(int fd, std::string* carry,
                                                   bool subsequent) const {
  const HttpSizeLimits& limits = options_.size_limits;
  std::string buffer = std::move(*carry);
  carry->clear();

  // Between requests of a kept-alive connection: wait for the first byte
  // under the idle deadline (the earlier of io_timeout and
  // keep_alive_idle_ms), in short slices so a drain request closes idle
  // connections promptly instead of after a full idle window. All quiet
  // ends — peer close, idle expiry, drain — return Cancelled, which the
  // caller maps to "close without a response".
  if (subsequent && buffer.empty()) {
    Deadline idle = Deadline::Earlier(
        IoDeadline(), options_.keep_alive_idle_ms > 0
                          ? Deadline::AfterMillis(options_.keep_alive_idle_ms)
                          : Deadline::Infinite());
    for (;;) {
      if (draining_.load(std::memory_order_relaxed) ||
          env_.drain_cancel.cancel_requested()) {
        return Status::Cancelled("server draining");
      }
      double remaining = idle.RemainingSeconds();
      if (remaining <= 0) return Status::Cancelled("keep-alive idle timeout");
      int slice_ms = 50;
      if (remaining * 1000.0 < slice_ms) {
        slice_ms = static_cast<int>(remaining * 1000.0) + 1;
      }
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      int n = poll(&pfd, 1, slice_ms);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Cancelled("poll: " + std::string(std::strerror(errno)));
      }
      if (n > 0 && (pfd.revents & (POLLIN | POLLHUP | POLLERR)) != 0) break;
    }
  }

  Deadline deadline = IoDeadline();
  size_t head_end = std::string::npos;
  size_t terminator = 0;

  for (;;) {
    // The carry (or a previous recv) may already hold a complete head —
    // check before waiting for more bytes, or a pipelining client stalls.
    size_t crlf = buffer.find("\r\n\r\n");
    size_t lf = buffer.find("\n\n");
    if (crlf != std::string::npos && (lf == std::string::npos || crlf < lf)) {
      head_end = crlf;
      terminator = 4;
      break;
    }
    if (lf != std::string::npos) {
      head_end = lf;
      terminator = 2;
      break;
    }
    if (buffer.size() > limits.max_head_bytes) {
      return Status::OutOfRange(
          "request head exceeds " + std::to_string(limits.max_head_bytes) +
          " bytes");
    }
    if (!PollFd(fd, POLLIN, deadline, env_.drain_cancel)) {
      return Status::DeadlineExceeded("timed out reading request head");
    }
    char chunk[4096];
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return Status::IOError("recv: " + std::string(std::strerror(errno)));
    }
    if (n == 0) {
      if (buffer.empty() && subsequent) {
        return Status::Cancelled("connection closed between requests");
      }
      return Status::InvalidArgument("connection closed mid-request");
    }
    buffer.append(chunk, static_cast<size_t>(n));
  }

  FAIRRANK_ASSIGN_OR_RETURN(
      HttpRequest request, ParseRequestHead(buffer.substr(0, head_end),
                                            limits));
  FAIRRANK_ASSIGN_OR_RETURN(size_t body_bytes,
                            ContentLength(request, limits));
  std::string body = buffer.substr(head_end + terminator);
  while (body.size() < body_bytes) {
    if (!PollFd(fd, POLLIN, deadline, env_.drain_cancel)) {
      return Status::DeadlineExceeded("timed out reading request body");
    }
    char chunk[4096];
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return Status::IOError("recv: " + std::string(std::strerror(errno)));
    }
    if (n == 0) {
      return Status::InvalidArgument("connection closed mid-body");
    }
    body.append(chunk, static_cast<size_t>(n));
  }
  // Bytes past this request's body are the start of the next pipelined
  // request: keep them for the connection's next ReadRequest.
  if (body.size() > body_bytes) {
    *carry = body.substr(body_bytes);
    body.resize(body_bytes);
  }
  request.body = std::move(body);
  return request;
}

void FairAuditServer::SendResponse(int fd, const HttpResponse& response,
                                   const Deadline& deadline) const {
  std::string wire = FormatHttpResponse(response);
  size_t sent = 0;
  while (sent < wire.size()) {
    double remaining = deadline.RemainingSeconds();
    if (remaining <= 0) return;
    int slice_ms = 100;
    if (remaining * 1000.0 < slice_ms) {
      slice_ms = static_cast<int>(remaining * 1000.0) + 1;
    }
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    int n = poll(&pfd, 1, slice_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (n == 0) continue;  // Slice elapsed; re-check the deadline.
    if ((pfd.revents & POLLOUT) == 0) {
      // POLLHUP/POLLERR without writability: the peer is gone or the
      // socket is broken. A plain `continue` here would spin — poll
      // reports the (persistent) hangup immediately while send keeps
      // returning EAGAIN against the full buffer of a stalled client.
      return;
    }
    ssize_t w = send(fd, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return;  // Peer went away; response delivery is best-effort.
    }
    sent += static_cast<size_t>(w);
  }
}

std::string FairAuditServer::StatsJson() const {
  return stats_.ToJson(&process_budget_, admission_.in_flight(), draining(),
                       queue_.size(), response_cache_.Snapshot());
}

}  // namespace fairrank
