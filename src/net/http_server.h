// Copyright (c) dpstarj authors. Licensed under the MIT license.
//
// HttpServer — a dependency-free epoll HTTP/1.1 server, the front door the
// DP-starJ query service speaks through (src/net/service_api.h wires the
// routes). The design keeps the accept loop non-blocking no matter what the
// handlers do:
//
//   * one event-loop thread owns the listen socket and epoll set; connection
//     sockets are registered EPOLLONESHOT, so a connection is touched by
//     exactly one thread at a time;
//   * a pool of handler threads runs the Router on fully-parsed requests and
//     writes the response; the handler queue never exceeds the connection cap
//     (one in-flight request per connection), so it is naturally bounded;
//   * per-connection parsers enforce hard header/body byte limits, and the
//     connection count is capped — excess accepts are answered 503 + close;
//   * per-connection deadlines bound a connection's *time* footprint the way
//     the parser limits bound its bytes: separate header-read, body-read and
//     keep-alive-idle deadlines live in a min-heap serviced by the epoll
//     loop (its wait timeout is the next expiry), so a slow-loris client
//     dripping one header byte per second is reaped with 408 at the header
//     deadline instead of pinning a connection slot forever; the write side
//     is bounded too — each response has a total write budget, so a peer
//     draining one byte per poll window cannot pin a handler thread;
//   * Stop() drains gracefully: the listen socket closes first, in-flight
//     requests finish (their responses say "Connection: close"), then idle
//     keep-alive connections are torn down and the threads joined.
//
// Handlers may block (the DP answer path does — a noisy star join takes
// milliseconds); only the sizing of `handler_threads` is affected, never the
// accept loop's responsiveness.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "net/http.h"
#include "obs/access_log.h"
#include "obs/metrics.h"

namespace dpstarj::net {

/// \brief Server configuration.
struct ServerOptions {
  /// Bind address; the default serves localhost only.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// listen(2) backlog.
  int backlog = 128;
  /// Threads running request handlers (and their blocking DP answers).
  int handler_threads = 4;
  /// Open-connection cap; accepts beyond it are answered 503 and closed.
  int max_connections = 1024;
  /// Per-request input bounds (header bytes, body bytes).
  ParserLimits limits;
  /// \name Connection deadlines, in milliseconds (0 disables one).
  /// The deadline is anchored at the phase transition and never extended by
  /// partial progress — dripping bytes does not buy a slow client time.
  /// @{
  /// Accept (or first byte after keep-alive idle) → complete header block.
  /// Expiry answers 408 and closes (the slow-loris bound).
  int header_timeout_ms = 10'000;
  /// Header block complete → full body received. Expiry answers 408 + close.
  int body_timeout_ms = 30'000;
  /// Response written → first byte of the next request on a keep-alive
  /// connection. Expiry closes silently (nothing was in flight to answer).
  int idle_timeout_ms = 60'000;
  /// Total budget for writing one response. Enforced inside the handler's
  /// blocking write (not the deadline heap): without it, a peer that reads
  /// one byte per zero-progress window pins a handler thread indefinitely —
  /// the write-side twin of the slow-loris read problem. Expiry closes the
  /// connection mid-response.
  int write_timeout_ms = 30'000;
  /// @}
  /// When set, the server's connection/request/timeout counters live here
  /// (names under dpstarj_http_*), so one /metrics scrape covers the
  /// transport next to the service; servers sharing a registry share the
  /// counters. When null the server keeps a private registry. Must outlive
  /// the server.
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, one JSON line per finished exchange — responses the router
  /// produced, reaped 408s, and 503 sheds alike (see obs/access_log.h).
  std::shared_ptr<obs::AccessLog> access_log;
  /// When > 0, any request whose server-side wall time reaches this many
  /// milliseconds is logged at WARN with its trace id and stage breakdown.
  int slow_query_ms = 0;
};

/// \brief Monotonic server counters, as returned by GetStats().
struct ServerStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_rejected = 0;  ///< over max_connections (503)
  uint64_t requests_handled = 0;
  uint64_t bad_requests = 0;          ///< parse failures answered 4xx/5xx
  uint64_t timeouts_header = 0;       ///< reaped at the header deadline (408)
  uint64_t timeouts_body = 0;         ///< reaped at the body deadline (408)
  uint64_t timeouts_idle = 0;         ///< keep-alive idle expiry (silent close)
  uint64_t timeouts_write = 0;        ///< response write budget exceeded (closed)
};

/// \brief The epoll HTTP server. Construct with a Router, Start(), Stop().
class HttpServer {
 public:
  HttpServer(Router router, ServerOptions options = {});
  /// Stops the server if still running.
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and spawns the event loop + handler threads. IoError on
  /// socket/bind/listen failure (e.g. port in use).
  Status Start();

  /// \brief Graceful shutdown: stop accepting, finish in-flight requests,
  /// close every connection, join all threads. Idempotent.
  void Stop();

  /// The bound port (resolves option `port == 0` after Start()).
  uint16_t port() const { return port_; }
  /// The bound address.
  const std::string& host() const { return options_.host; }

  /// Open connections right now.
  int connection_count() const;
  /// A snapshot of the counters.
  ServerStats GetStats() const;

 private:
  /// One connection's state; owned by the connection table, borrowed by
  /// exactly one thread at a time (EPOLLONESHOT discipline). The mutex makes
  /// that handoff a memory-model edge: epoll_ctl/epoll_wait alone publish
  /// nothing, so the event loop and the handler threads lock `mu` around
  /// every parser access. It is uncontended by construction — ONESHOT means
  /// nobody waits on it — it only orders the handoffs.
  struct Connection {
    /// Which deadline currently governs the connection.
    enum class Phase {
      kHeader,    ///< waiting for a complete header block
      kBody,      ///< headers done, body bytes owed
      kIdle,      ///< keep-alive, no request in progress
      kHandling,  ///< owned by a handler thread — no deadline
    };

    explicit Connection(int fd, ParserLimits limits) : fd(fd), parser(limits) {}
    const int fd;
    std::mutex mu;
    HttpRequestParser parser;
    /// Guarded by mu (the reaper reads it under mu before closing).
    Phase phase = Phase::kHeader;
    /// \name Request read timing (guarded by mu).
    /// `read_start` anchors the current read phase (reset when a new
    /// request's first bytes arrive); the *_us fields accumulate the finished
    /// request's socket-read times and are copied into HttpRequest — then
    /// zeroed — at dispatch, so pipelined followers report 0.
    /// @{
    std::chrono::steady_clock::time_point read_start{};
    uint64_t header_read_us = 0;
    uint64_t body_read_us = 0;
    /// @}
    /// Which heap entry is current: SetDeadline stores a fresh server-wide
    /// serial here, so superseded entries are recognized and skipped when
    /// they surface (lazy deletion). Server-wide — not per-connection — so a
    /// stale entry can never match a NEW connection that reused the same fd
    /// number (and would otherwise start from the same small gen values).
    /// Atomic so the reaper can pre-check without conn->mu — a handler deep
    /// in a blocking write always has a stale gen, and the reaper must not
    /// wait on it. 0 = no deadline ever scheduled.
    std::atomic<uint64_t> deadline_gen{0};
  };

  /// One pending expiry in the deadline min-heap.
  struct DeadlineEntry {
    std::chrono::steady_clock::time_point deadline;
    int fd = -1;
    uint64_t gen = 0;
    bool operator>(const DeadlineEntry& other) const {
      return deadline > other.deadline;
    }
  };

  void EventLoop();
  void HandlerLoop();

  /// Interrupts epoll_wait (deadline pushed off-loop, or Stop()).
  void Wake();

  /// \brief Moves `conn` into `phase` and schedules its expiry (cancelling
  /// any previous deadline via the gen bump). Phases with a zero timeout —
  /// kHandling always — only cancel. Requires conn->mu held.
  void SetDeadline(Connection* conn, Connection::Phase phase);
  /// The configured timeout of a phase (0 = none).
  int TimeoutForPhase(Connection::Phase phase) const;

  /// \brief Pops due deadlines, reaps the connections they still govern, and
  /// returns the epoll timeout until the next expiry (-1 when none pending).
  /// Runs on the event thread.
  int ReapExpiredDeadlines();
  /// Rebuilds the heap keeping only each fd's newest entry (per heap_gens_).
  /// Requires deadline_mu_ held; called when stale entries dominate.
  void CompactDeadlinesLocked();
  /// Reaps one expired entry if its gen is still current: 408 for header/
  /// body expiry (best-effort), silent close for idle.
  void ReapConnection(const DeadlineEntry& entry);

  /// Accepts until EAGAIN; each new fd is registered EPOLLIN|EPOLLONESHOT.
  void AcceptReady();
  /// Reads until EAGAIN and advances the parser; dispatches or re-arms.
  void ConnectionReady(int fd);

  /// Runs the router on a complete request and writes the response. Returns
  /// with the connection either re-armed (keep-alive) or closed.
  void HandleRequest(Connection* conn);

  /// Blocking full write with poll()-based readiness; false on peer error.
  bool WriteAll(int fd, const std::string& data);

  /// Registers (add) or re-arms (mod) EPOLLIN|ONESHOT; false on failure
  /// (the caller must close the connection).
  bool ArmRead(int fd, bool add);
  Connection* LookupConnection(int fd);
  /// \brief Closes `fd` iff the table still maps it to `conn`. Deliberately
  /// never dereferences `conn` (pointer identity only): a handler thread may
  /// reach here after the deadline reaper has already claimed and destroyed
  /// the Connection, and this must degrade to a no-op, not a use-after-free.
  void CloseConnection(int fd, Connection* conn);
  void EnqueueHandler(Connection* conn);

  Router router_;
  ServerOptions options_;
  uint16_t port_ = 0;

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd that interrupts epoll_wait for Stop()

  std::thread event_thread_;
  /// Stored (atomically) right after the event thread spawns: SetDeadline
  /// compares the running thread against this instead of
  /// event_thread_.get_id() — the std::thread object is mutated by Stop()'s
  /// join() concurrently with late handler-side deadline pushes, and
  /// std::thread members are not synchronized. Atomic because the event
  /// thread itself may read it (via AcceptReady → SetDeadline) before
  /// Start()'s store lands; the default id then compares unequal, costing
  /// at most one spurious self-wake.
  std::atomic<std::thread::id> event_thread_id_{};
  std::vector<std::thread> handler_threads_;

  /// Connection table; the unique_ptrs pin Connection addresses so handler
  /// threads can hold raw pointers while the table mutates.
  mutable std::mutex conn_mu_;
  std::unordered_map<int, std::unique_ptr<Connection>> connections_;

  /// Deadline min-heap (lazy deletion: superseded entries are skipped when
  /// popped). Guarded by its own mutex — handler threads push idle deadlines
  /// while the event thread pops. Lock order is conn_mu_ → conn->mu →
  /// deadline_mu_, acyclic by construction.
  std::mutex deadline_mu_;
  std::priority_queue<DeadlineEntry, std::vector<DeadlineEntry>,
                      std::greater<DeadlineEntry>>
      deadlines_;
  /// fd → gen of its newest pushed entry (erased on cancel). Lazy deletion
  /// alone would let superseded entries pile up for their full nominal
  /// timeout — at high request rates that is hundreds of thousands of dead
  /// 60s-idle entries — so when the heap far outgrows this map (the live
  /// population), CompactDeadlinesLocked() drops everything superseded.
  /// Bounded by peak concurrent fd numbers (the kernel recycles them).
  std::unordered_map<int, uint64_t> heap_gens_;
  /// Source of the server-wide unique gens stamped into connections/entries.
  std::atomic<uint64_t> deadline_gen_counter_{0};

  std::mutex handler_mu_;
  std::condition_variable handler_cv_;
  std::condition_variable drain_cv_;
  std::deque<Connection*> handler_queue_;
  int handlers_busy_ = 0;

  /// Serializes Stop() (user call vs destructor).
  std::mutex stop_mu_;
  bool stopped_ = false;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};  ///< Stop() begun: no new accepts/keep-alive
  std::atomic<bool> stop_{false};      ///< event thread must exit
  /// Handler threads may exit (set only after the event thread is joined, so
  /// the queue is final and everything in it still gets answered).
  std::atomic<bool> handlers_exit_{false};

  /// The server's counters, in options_.metrics (names under
  /// dpstarj_http_*) or, when that is null, in owned_metrics_. GetStats()
  /// reads them back, so /metrics and GetStats() never disagree.
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::Counter* connections_accepted_ = nullptr;
  obs::Counter* connections_rejected_ = nullptr;
  obs::Counter* requests_handled_ = nullptr;
  obs::Counter* bad_requests_ = nullptr;
  obs::Counter* timeouts_header_ = nullptr;
  obs::Counter* timeouts_body_ = nullptr;
  obs::Counter* timeouts_idle_ = nullptr;
  obs::Counter* timeouts_write_ = nullptr;
};

}  // namespace dpstarj::net
