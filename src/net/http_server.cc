#include "net/http_server.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_name.h"
#include "net/json.h"

namespace dpstarj::net {

namespace {

constexpr int kEpollBatch = 64;
/// How long WriteAll waits for a congested peer before giving up on it.
constexpr int kWritePollTimeoutMs = 10'000;

// Error-body `code` values are the library StatusCode names (the wire
// contract documented in service_api.h), including for errors raised below
// the router — clients switch on one vocabulary.
const char* ParseErrorCodeName(int http_status) {
  switch (http_status) {
    case 413:
    case 431:
      return "OutOfRange";
    case 501:
    case 505:
      return "NotSupported";
    default:
      return "InvalidArgument";
  }
}

void SetNoDelay(int fd) {
  int one = 1;
  (void)setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

HttpServer::HttpServer(Router router, ServerOptions options)
    : router_(std::move(router)), options_(std::move(options)) {
  if (options_.handler_threads <= 0) options_.handler_threads = 1;
  if (options_.max_connections <= 0) options_.max_connections = 1;
  if (options_.metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  obs::MetricsRegistry* reg =
      options_.metrics != nullptr ? options_.metrics : owned_metrics_.get();
  connections_accepted_ =
      reg->GetCounter("dpstarj_http_connections_total",
                      "Connections by accept outcome", {{"result", "accepted"}});
  connections_rejected_ =
      reg->GetCounter("dpstarj_http_connections_total",
                      "Connections by accept outcome", {{"result", "rejected"}});
  requests_handled_ = reg->GetCounter("dpstarj_http_requests_total",
                                      "Requests answered by the router");
  bad_requests_ = reg->GetCounter("dpstarj_http_bad_requests_total",
                                  "Parse failures answered 4xx/5xx");
  auto timeouts = [reg](const char* kind) {
    return reg->GetCounter("dpstarj_http_timeouts_total",
                           "Connections reaped by deadline, by kind",
                           {{"kind", kind}});
  };
  timeouts_header_ = timeouts("header");
  timeouts_body_ = timeouts("body");
  timeouts_idle_ = timeouts("idle");
  timeouts_write_ = timeouts("write");
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start() {
  if (started_.exchange(true)) return Status::Internal("server already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(Format("socket: %s", std::strerror(errno)));
  }
  int one = 1;
  (void)setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument(
        Format("bad bind address '%s'", options_.host.c_str()));
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::IoError(Format("bind %s:%u: %s", options_.host.c_str(),
                                       options_.port, std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    Status st = Status::IoError(Format("listen: %s", std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  // Resolve an ephemeral port request.
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status st = Status::IoError(Format("epoll/eventfd: %s", std::strerror(errno)));
    Stop();
    return st;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0 ||
      (ev.data.fd = wake_fd_,
       ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0)) {
    Status st = Status::IoError(Format("epoll_ctl: %s", std::strerror(errno)));
    Stop();
    return st;
  }

  event_thread_ = std::thread([this] {
    common::SetCurrentThreadName("dpsj-epoll");
    EventLoop();
  });
  event_thread_id_.store(event_thread_.get_id());
  handler_threads_.reserve(static_cast<size_t>(options_.handler_threads));
  for (int i = 0; i < options_.handler_threads; ++i) {
    handler_threads_.emplace_back([this, i] {
      common::SetCurrentThreadName("dpsj-http-", i);
      HandlerLoop();
    });
  }
  DPSTARJ_LOG(kInfo) << "http server listening on " << options_.host << ":"
                     << port_;
  return Status::OK();
}

void HttpServer::Wake() {
  if (wake_fd_ >= 0) {
    uint64_t n = 1;
    (void)!::write(wake_fd_, &n, sizeof(n));
  }
}

void HttpServer::Stop() {
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (!started_.load() || stopped_) return;
  stopped_ = true;
  draining_.store(true);

  auto wake = [this] { Wake(); };
  // Phase 1: stop accepting (the event loop closes the listen socket) and let
  // in-flight requests finish — their responses carry "Connection: close".
  wake();
  if (event_thread_.joinable()) {
    std::unique_lock<std::mutex> lock(handler_mu_);
    drain_cv_.wait(lock, [this] {
      return handler_queue_.empty() && handlers_busy_ == 0;
    });
  }
  // Phase 2: tear down the threads. The event thread is joined FIRST, so the
  // handler queue is final when the handler threads are told to exit — a
  // request the event loop was dispatching right as the drain wait passed is
  // still answered (with "Connection: close"), never dropped.
  stop_.store(true);
  wake();
  if (event_thread_.joinable()) event_thread_.join();
  handlers_exit_.store(true);
  handler_cv_.notify_all();
  for (auto& t : handler_threads_) {
    if (t.joinable()) t.join();
  }
  handler_threads_.clear();

  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [fd, conn] : connections_) ::close(fd);
    connections_.clear();
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (wake_fd_ >= 0) ::close(wake_fd_);
  listen_fd_ = epoll_fd_ = wake_fd_ = -1;
}

int HttpServer::connection_count() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return static_cast<int>(connections_.size());
}

ServerStats HttpServer::GetStats() const {
  ServerStats s;
  s.connections_accepted = connections_accepted_->Value();
  s.connections_rejected = connections_rejected_->Value();
  s.requests_handled = requests_handled_->Value();
  s.bad_requests = bad_requests_->Value();
  s.timeouts_header = timeouts_header_->Value();
  s.timeouts_body = timeouts_body_->Value();
  s.timeouts_idle = timeouts_idle_->Value();
  s.timeouts_write = timeouts_write_->Value();
  return s;
}

int HttpServer::TimeoutForPhase(Connection::Phase phase) const {
  switch (phase) {
    case Connection::Phase::kHeader:
      return options_.header_timeout_ms;
    case Connection::Phase::kBody:
      return options_.body_timeout_ms;
    case Connection::Phase::kIdle:
      return options_.idle_timeout_ms;
    case Connection::Phase::kHandling:
      return 0;
  }
  return 0;
}

void HttpServer::SetDeadline(Connection* conn, Connection::Phase phase) {
  conn->phase = phase;
  // The fresh gen invalidates every entry already in the heap for this
  // connection; with a zero timeout that is the whole job (pure cancel).
  // Gens are drawn from a server-wide counter: a per-connection counter
  // would restart at 1 for a new connection on a recycled fd number, and a
  // stale heap entry (fd, 1) from the fd's previous life could then reap the
  // newcomer before its real deadline.
  const uint64_t gen =
      deadline_gen_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  conn->deadline_gen.store(gen, std::memory_order_release);
  const int timeout_ms = TimeoutForPhase(phase);
  if (timeout_ms <= 0) {
    std::lock_guard<std::mutex> lock(deadline_mu_);
    heap_gens_.erase(conn->fd);
    return;
  }
  DeadlineEntry entry;
  entry.deadline = std::chrono::steady_clock::now() +
                   std::chrono::milliseconds(timeout_ms);
  entry.fd = conn->fd;
  entry.gen = gen;
  bool new_earliest = false;
  {
    std::lock_guard<std::mutex> lock(deadline_mu_);
    new_earliest =
        deadlines_.empty() || entry.deadline < deadlines_.top().deadline;
    deadlines_.push(entry);
    heap_gens_[conn->fd] = gen;
    // Superseded entries removed only at expiry would accumulate with
    // request rate; compact once they clearly dominate the live set.
    if (deadlines_.size() > 1024 && deadlines_.size() > 4 * heap_gens_.size()) {
      CompactDeadlinesLocked();
    }
  }
  // A push from a handler thread may shorten the next expiry below what the
  // event loop is currently sleeping for — kick it to recompute, but only
  // when this entry actually became the earliest: the loop's sleep bound is
  // never later than the previous heap top, so a later entry needs no wake
  // (and the typical post-response idle push would otherwise pay one eventfd
  // write plus a spurious wakeup per request). Pushes from the event thread
  // itself happen before its next ReapExpiredDeadlines.
  if (new_earliest && std::this_thread::get_id() != event_thread_id_.load()) {
    Wake();
  }
}

void HttpServer::CompactDeadlinesLocked() {
  std::vector<DeadlineEntry> live;
  live.reserve(heap_gens_.size());
  while (!deadlines_.empty()) {
    const DeadlineEntry& entry = deadlines_.top();
    auto it = heap_gens_.find(entry.fd);
    if (it != heap_gens_.end() && it->second == entry.gen) {
      live.push_back(entry);
    }
    deadlines_.pop();
  }
  deadlines_ = decltype(deadlines_)(std::greater<DeadlineEntry>(),
                                    std::move(live));
}

int HttpServer::ReapExpiredDeadlines() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<DeadlineEntry> due;
  int timeout_ms = -1;
  {
    std::lock_guard<std::mutex> lock(deadline_mu_);
    while (!deadlines_.empty() && deadlines_.top().deadline <= now) {
      due.push_back(deadlines_.top());
      deadlines_.pop();
    }
    if (!deadlines_.empty()) {
      // Round up so epoll_wait never returns before the deadline and spins.
      auto delta = deadlines_.top().deadline - now;
      timeout_ms = static_cast<int>(
                       std::chrono::duration_cast<std::chrono::milliseconds>(delta)
                           .count()) +
                   1;
    }
  }
  for (const DeadlineEntry& entry : due) ReapConnection(entry);
  return timeout_ms;
}

void HttpServer::ReapConnection(const DeadlineEntry& entry) {
  // Claim the connection under the table lock: once its entry is moved out,
  // no other thread can destroy it (destruction requires conn_mu_), and any
  // concurrent CloseConnection no-ops on the missing entry. The gen pre-check
  // is lock-free on conn->mu so a handler blocked in a long write — whose gen
  // is always stale, kHandling bumps it at dispatch — never stalls the event
  // loop here.
  std::unique_ptr<Connection> owned;
  Connection::Phase phase;
  {
    std::lock_guard<std::mutex> table_lock(conn_mu_);
    auto it = connections_.find(entry.fd);
    if (it == connections_.end()) return;  // already closed
    Connection* conn = it->second.get();
    if (conn->deadline_gen.load(std::memory_order_acquire) != entry.gen) {
      return;  // superseded: the connection made progress
    }
    owned = std::move(it->second);
    connections_.erase(it);
    // A matching gen means no handler owns the connection; at worst one is in
    // the microseconds between scheduling this very deadline and releasing
    // mu (its re-arm tail). Wait that out so the fd is not closed under it.
    std::lock_guard<std::mutex> lock(owned->mu);
    phase = owned->phase;
  }
  switch (phase) {
    case Connection::Phase::kHeader:
    case Connection::Phase::kBody: {
      const bool header = phase == Connection::Phase::kHeader;
      (header ? timeouts_header_ : timeouts_body_)->Inc();
      // Best-effort 408 — one non-blocking send; a peer too slow to read a
      // request is likely too slow to read this, and that must not stall us.
      HttpResponse timeout = HttpResponse::MakeJson(
          408, Format("{\"error\":{\"code\":\"TimeLimit\",\"message\":"
                      "\"%s read deadline exceeded\"}}",
                      header ? "header" : "body"));
      std::string wire = SerializeResponse(timeout, /*keep_alive=*/false);
      (void)!::send(owned->fd, wire.data(), wire.size(), MSG_NOSIGNAL);
      if (options_.access_log != nullptr) {
        // A reaped request may have a parsed request line (body expiry always
        // does); attribute what is known, with no trace — the request never
        // reached a handler.
        obs::AccessLogEntry entry;
        entry.method = owned->parser.request().method;
        entry.path = owned->parser.request().path;
        entry.status = 408;
        entry.total_us = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - owned->read_start)
                .count());
        options_.access_log->Write(entry);
      }
      break;
    }
    case Connection::Phase::kIdle:
      timeouts_idle_->Inc();
      break;
    case Connection::Phase::kHandling:
      break;  // unreachable: dispatch bumps the gen
  }
  {
    std::lock_guard<std::mutex> lock(deadline_mu_);
    heap_gens_.erase(owned->fd);
  }
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, owned->fd, nullptr);
  ::close(owned->fd);
}

void HttpServer::EventLoop() {
  epoll_event events[kEpollBatch];
  while (!stop_.load()) {
    // The wait is bounded by the earliest connection deadline; expired ones
    // are reaped before sleeping again.
    int timeout_ms = ReapExpiredDeadlines();
    int n = ::epoll_wait(epoll_fd_, events, kEpollBatch, timeout_ms);
    if (n < 0) {
      if (errno == EINTR) continue;
      DPSTARJ_LOG(kError) << "epoll_wait: " << std::strerror(errno);
      break;
    }
    for (int i = 0; i < n && !stop_.load(); ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        (void)!::read(wake_fd_, &drained, sizeof(drained));
        if (draining_.load() && listen_fd_ >= 0) {
          (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          ::close(listen_fd_);
          listen_fd_ = -1;
        }
        continue;
      }
      if (fd == listen_fd_) {
        AcceptReady();
        continue;
      }
      ConnectionReady(fd);
    }
  }
}

void HttpServer::AcceptReady() {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      DPSTARJ_LOG(kWarning) << "accept: " << std::strerror(errno);
      return;
    }
    SetNoDelay(fd);
    if (draining_.load() || connection_count() >= options_.max_connections) {
      // Over the cap (or shutting down): shed the connection with a best-
      // effort 503 — never let it consume parser/handler resources.
      connections_rejected_->Inc();
      HttpResponse busy = HttpResponse::MakeJson(
          503,
          "{\"error\":{\"code\":\"Unavailable\","
          "\"message\":\"connection limit reached\"}}");
      std::string wire = SerializeResponse(busy, /*keep_alive=*/false);
      (void)!::write(fd, wire.data(), wire.size());
      ::close(fd);
      if (options_.access_log != nullptr) {
        // Shed before a single byte was read: nothing to attribute but the
        // refusal itself.
        obs::AccessLogEntry entry;
        entry.status = 503;
        options_.access_log->Write(entry);
      }
      continue;
    }
    connections_accepted_->Inc();
    Connection* conn = nullptr;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      conn = connections_
                 .emplace(fd, std::make_unique<Connection>(fd, options_.limits))
                 .first->second.get();
    }
    bool armed = false;
    {
      std::lock_guard<std::mutex> lock(conn->mu);
      // The header clock starts at accept: a client that connects and sends
      // nothing (or drips) is exactly what the deadline is for.
      conn->read_start = std::chrono::steady_clock::now();
      SetDeadline(conn, Connection::Phase::kHeader);
      armed = ArmRead(fd, /*add=*/true);
    }
    if (!armed) CloseConnection(fd, conn);
  }
}

HttpServer::Connection* HttpServer::LookupConnection(int fd) {
  std::lock_guard<std::mutex> lock(conn_mu_);
  auto it = connections_.find(fd);
  return it == connections_.end() ? nullptr : it->second.get();
}

bool HttpServer::ArmRead(int fd, bool add) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | EPOLLONESHOT;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, add ? EPOLL_CTL_ADD : EPOLL_CTL_MOD, fd, &ev) != 0) {
    DPSTARJ_LOG(kWarning) << "epoll_ctl arm: " << std::strerror(errno);
    return false;
  }
  return true;
}

void HttpServer::CloseConnection(int fd, Connection* conn) {
  // Remove the table entry BEFORE closing the fd: the moment close() returns,
  // accept4 on the event thread may hand the same fd number back, and its
  // fresh Connection must not collide with (or be destroyed by) this one.
  // `conn` is compared, never dereferenced — see the header comment.
  std::unique_ptr<Connection> owned;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    auto it = connections_.find(fd);
    if (it != connections_.end() && it->second.get() == conn) {
      owned = std::move(it->second);
      connections_.erase(it);
    }
  }
  if (owned == nullptr) return;  // already closed by another path
  {
    // Un-endorse any pending deadline entry: without this, a closed
    // connection's entry stays "live" to CompactDeadlinesLocked for its full
    // nominal timeout, and under connection churn the heap's dead population
    // both grows and defers the compaction trigger.
    std::lock_guard<std::mutex> lock(deadline_mu_);
    heap_gens_.erase(fd);
  }
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
}

void HttpServer::ConnectionReady(int fd) {
  Connection* conn = LookupConnection(fd);
  if (conn == nullptr) return;  // raced with a close

  bool should_close = false;
  bool dispatch = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    // First bytes of a keep-alive connection's next request: restart the
    // read clock — the idle wait is the client's time, not read time.
    if (conn->phase == Connection::Phase::kIdle) {
      conn->read_start = std::chrono::steady_clock::now();
    }
    char buf[8192];
    bool peer_gone = false;
    HttpRequestParser::Progress progress = HttpRequestParser::Progress::kNeedMore;
    for (;;) {
      ssize_t n = ::read(fd, buf, sizeof(buf));
      if (n > 0) {
        progress = conn->parser.Feed(buf, static_cast<size_t>(n));
        if (progress != HttpRequestParser::Progress::kNeedMore) break;
        continue;
      }
      if (n == 0) {
        peer_gone = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      peer_gone = true;
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    const auto elapsed_us = [&] {
      return static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              now - conn->read_start)
              .count());
    };
    if (progress == HttpRequestParser::Progress::kComplete) {
      // The request finished in this read burst; whichever read phase it was
      // in absorbs the elapsed time (headers+body arriving together is all
      // header-read — body_read stays 0).
      if (conn->phase == Connection::Phase::kBody) {
        conn->body_read_us += elapsed_us();
      } else {
        conn->header_read_us += elapsed_us();
      }
      conn->read_start = now;
    }
    if (progress == HttpRequestParser::Progress::kNeedMore) {
      if (!peer_gone) {
        // Advance the deadline phase on transitions only: kIdle→kHeader when
        // the next request's first bytes arrive, kHeader→kBody when the
        // header block completes. Within a phase the deadline stays anchored
        // — partial progress never buys a slow client more time.
        Connection::Phase want =
            conn->parser.in_body()
                ? Connection::Phase::kBody
                : (conn->parser.has_buffered_input() ? Connection::Phase::kHeader
                                                     : conn->phase);
        if (want != conn->phase) {
          if (want == Connection::Phase::kBody) {
            // Header block complete: bank the header-read span and restart
            // the clock for the body bytes still owed.
            conn->header_read_us += elapsed_us();
            conn->read_start = now;
          }
          SetDeadline(conn, want);
        }
      }
      should_close = peer_gone || !ArmRead(fd, /*add=*/false);
    } else {
      // Complete request or parse error: hand the connection to a handler
      // thread. The event loop never runs the router — a slow DP answer must
      // not delay other connections' accepts and reads. No deadline while a
      // handler owns the connection (the DP answer may legitimately block).
      SetDeadline(conn, Connection::Phase::kHandling);
      dispatch = true;
    }
  }
  if (should_close) {
    CloseConnection(fd, conn);
  } else if (dispatch) {
    EnqueueHandler(conn);
  }
}

void HttpServer::EnqueueHandler(Connection* conn) {
  {
    std::lock_guard<std::mutex> lock(handler_mu_);
    handler_queue_.push_back(conn);
  }
  handler_cv_.notify_one();
}

void HttpServer::HandlerLoop() {
  for (;;) {
    Connection* conn = nullptr;
    {
      std::unique_lock<std::mutex> lock(handler_mu_);
      handler_cv_.wait(lock, [this] {
        return handlers_exit_.load() || !handler_queue_.empty();
      });
      if (handler_queue_.empty()) {
        if (handlers_exit_.load()) return;
        continue;
      }
      conn = handler_queue_.front();
      handler_queue_.pop_front();
      ++handlers_busy_;
    }
    // Queued work is answered even when stop_ is already set: draining_
    // forces "Connection: close", and Stop() joins the event thread before
    // releasing the handlers, so this loop always drains to empty.
    HandleRequest(conn);
    {
      std::lock_guard<std::mutex> lock(handler_mu_);
      --handlers_busy_;
      if (handler_queue_.empty() && handlers_busy_ == 0) drain_cv_.notify_all();
    }
  }
}

void HttpServer::HandleRequest(Connection* conn) {
  // Serve every request already buffered on this connection (pipelining),
  // then re-arm it for fresh bytes. The connection mutex is held across the
  // whole exchange — uncontended under the ONESHOT discipline — and released
  // before a close, which destroys the Connection. The fd is captured under
  // the mutex: after release, a reaper that claimed the connection during
  // the re-arm tail may destroy it, and the close below must not touch it.
  bool should_close = false;
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    fd = conn->fd;
    for (;;) {
      if (conn->parser.in_error()) {
        bad_requests_->Inc();
        HttpResponse r = HttpResponse::MakeJson(
            conn->parser.error_status(),
            Format("{\"error\":{\"code\":\"%s\",\"message\":\"%s\"}}",
                   ParseErrorCodeName(conn->parser.error_status()),
                   JsonEscape(conn->parser.error()).c_str()));
        (void)WriteAll(conn->fd, SerializeResponse(r, /*keep_alive=*/false));
        if (options_.access_log != nullptr) {
          // Whatever the parser managed to extract before failing (possibly
          // empty method/path) is still the best attribution available.
          obs::AccessLogEntry entry;
          entry.method = conn->parser.request().method;
          entry.path = conn->parser.request().path;
          entry.status = r.status;
          entry.total_us = conn->header_read_us + conn->body_read_us;
          options_.access_log->Write(entry);
        }
        should_close = true;
        break;
      }
      if (!conn->parser.is_complete()) {
        // Back to the read phases: idle when nothing of the next request has
        // arrived, header/body when pipelined bytes already carry part of it.
        Connection::Phase next =
            conn->parser.in_body()
                ? Connection::Phase::kBody
                : (conn->parser.has_buffered_input() ? Connection::Phase::kHeader
                                                     : Connection::Phase::kIdle);
        SetDeadline(conn, next);
        should_close = !ArmRead(conn->fd, /*add=*/false);
        if (should_close) {
          // Cancel the deadline just scheduled: a reaper that has not yet
          // passed its gen check must not race this thread to the close. (A
          // reaper already past the check — parked on this mutex — wins the
          // connection instead; the fd-keyed CloseConnection below then
          // degrades to a no-op rather than touching the freed Connection.)
          SetDeadline(conn, Connection::Phase::kHandling);
        }
        break;
      }
      HttpRequest& request = conn->parser.request();
      // Hand the banked socket-read times to the handler (its trace records
      // them as the header_read/body_read stages) and clear them: pipelined
      // follow-ups were read as part of an earlier request's burst, so they
      // report 0 rather than double-billing.
      request.header_read_us = conn->header_read_us;
      request.body_read_us = conn->body_read_us;
      conn->header_read_us = 0;
      conn->body_read_us = 0;
      const bool keep_alive = request.keep_alive && !draining_.load();
      const auto handle_start = std::chrono::steady_clock::now();
      HttpResponse response = router_.Dispatch(request);
      requests_handled_->Inc();
      if (response.trace != nullptr) {
        response.headers.push_back({"X-DPStarJ-Trace-Id", response.trace->id()});
      }
      std::string wire = SerializeResponse(response, keep_alive);
      const bool write_ok = WriteAll(conn->fd, wire);
      const uint64_t handle_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - handle_start)
              .count());
      const uint64_t total_us =
          request.header_read_us + request.body_read_us + handle_us;
      if (options_.access_log != nullptr) {
        obs::AccessLogEntry entry;
        entry.method = request.method;
        entry.path = request.path;
        entry.status = response.status;
        entry.tenant = response.tenant;
        entry.total_us = total_us;
        entry.trace = response.trace.get();
        options_.access_log->Write(entry);
      }
      if (options_.slow_query_ms > 0 &&
          total_us >= static_cast<uint64_t>(options_.slow_query_ms) * 1000) {
        // Name the dominant stage inline: the operator triaging the log
        // should not need to fetch the trace by id just to learn where the
        // time went.
        std::string dominant;
        if (response.trace != nullptr && total_us > 0) {
          uint64_t max_ns = 0;
          obs::Stage max_stage = obs::Stage::kHeaderRead;
          for (int s = 0; s < obs::kStageCount; ++s) {
            const auto stage = static_cast<obs::Stage>(s);
            if (response.trace->stage_ns(stage) > max_ns) {
              max_ns = response.trace->stage_ns(stage);
              max_stage = stage;
            }
          }
          if (max_ns > 0) {
            dominant = Format(" dominant_stage=%s (%.0f%%)",
                              obs::StageName(max_stage),
                              100.0 * static_cast<double>(max_ns / 1000) /
                                  static_cast<double>(total_us));
          }
        }
        DPSTARJ_LOG(kWarning)
            << "slow request: " << request.method << " " << request.path
            << " -> " << response.status << " in " << total_us << " us"
            << dominant
            << (response.trace != nullptr ? " trace=" + response.trace->id()
                                          : std::string());
      }
      if (!write_ok || !keep_alive) {
        should_close = true;
        break;
      }
      conn->parser.Reset();
      (void)conn->parser.Pump();
    }
  }
  if (should_close) CloseConnection(fd, conn);
}

bool HttpServer::WriteAll(int fd, const std::string& data) {
  // Two bounds: the zero-progress window (kWritePollTimeoutMs) catches a
  // peer that stops reading entirely, and the total write budget
  // (write_timeout_ms, 0 = unbounded) catches one that keeps the window
  // alive by draining a byte at a time — either way a handler thread is
  // released instead of pinned.
  const bool bounded = options_.write_timeout_ms > 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(bounded ? options_.write_timeout_ms : 0);
  size_t sent = 0;
  while (sent < data.size()) {
    if (bounded && std::chrono::steady_clock::now() >= deadline) {
      timeouts_write_->Inc();
      return false;
    }
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      int wait_ms = kWritePollTimeoutMs;
      if (bounded) {
        const long long left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        wait_ms = static_cast<int>(std::max<long long>(
            0, std::min<long long>(wait_ms, left + 1)));
      }
      pollfd pfd{fd, POLLOUT, 0};
      int ready = ::poll(&pfd, 1, wait_ms);
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0 && wait_ms >= kWritePollTimeoutMs) {
        return false;  // zero progress for the whole window: peer gone/stuck
      }
      continue;  // progress possible, or the budget check above fires next
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace dpstarj::net
