// dxrecd: a long-lived, multi-client recovery server over dxrec::Engine
// (docs/SERVING.md).
//
// Thread model:
//
//   accept thread ──> one reader thread per connection
//                         │  ping / open_session / close_session / stats
//                         │  run inline (cheap, keeps control ops
//                         │  responsive and per-connection ordered)
//                         ▼
//                  AdmissionQueue (bounded; sheds at the door)
//                         │
//                  dispatcher thread
//                         │  TaskGroup::Run
//                         ▼
//                  util::ThreadPool workers: execute certain / recover /
//                  analyze, write the response to the connection
//
// Per-request resilience: each engine call runs with threads=1 (the
// serve pool provides the concurrency; no nested pools), a per-request
// deadline, and the server's drain CancelToken. Overload-admitted
// requests (queue past its soft limit) get the short overload deadline
// instead, so the engine's degradation ladder — not an error path — is
// the overload response: clients receive sound under-approximate
// answers with the rung named in the response.
//
// Drain (SIGTERM): stop accepting, answer new work "draining", let
// in-flight requests finish for drain_timeout_seconds, then cancel them
// (with degradation on, a cancelled `certain` still returns its sound
// rungs), flush a final metrics rotation to the exporters, close every
// connection, join every thread. Drain() is idempotent and the
// destructor calls it.
#ifndef DXREC_SERVE_SERVER_H_
#define DXREC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "serve/admission.h"
#include "serve/protocol.h"
#include "serve/session.h"
#include "serve/transport.h"
#include "util/thread_pool.h"

namespace dxrec {
namespace serve {

struct ServerOptions {
  // Worker pool size for request execution; 0 = hardware concurrency.
  size_t threads = 0;
  // Admission queue bounds (serve/admission.h).
  size_t queue_capacity = 64;
  size_t queue_soft_limit = 0;  // 0 = capacity / 2
  // Deadline for requests that do not send their own, in seconds.
  double default_deadline_seconds = 5.0;
  // Deadline forced onto overload-admitted requests: short enough that
  // pressure drains through the degradation ladder.
  double overload_deadline_seconds = 0.05;
  // How long Drain() lets in-flight work run before cancelling it.
  double drain_timeout_seconds = 5.0;
  // Base engine configuration (budgets, algorithms, obs). The server
  // overrides parallel.threads (always 1 per request) and the resilience
  // section (per-request deadline + drain cancel token).
  EngineOptions engine;
};

class Server {
 public:
  explicit Server(ServerOptions options = ServerOptions());
  ~Server();  // Drain()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Takes ownership of the listener and starts the accept loop.
  Status Start(std::unique_ptr<Listener> listener);

  // Graceful shutdown per the drain contract above. Idempotent.
  void Drain();

  bool draining() const {
    return draining_.load(std::memory_order_relaxed);
  }
  SessionRegistry& sessions() { return sessions_; }
  const ServerOptions& options() const { return options_; }
  size_t queue_depth() const { return queue_.depth(); }

 private:
  struct Pending {
    std::shared_ptr<Connection> conn;
    Request request;
    AdmissionVerdict verdict = AdmissionVerdict::kAdmit;
    std::chrono::steady_clock::time_point enqueued;
  };

  // One connection's reader thread. List nodes never move, so the
  // thread may set its own `done` flag on exit.
  struct Reader {
    std::thread thread;
    std::weak_ptr<Connection> conn;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  // Joins and drops readers whose connection has ended, so the server
  // holds threads for its live connections, not for every connection it
  // ever accepted. Runs before each accept; caller holds readers_mu_.
  void ReapReadersLocked();
  void DispatchLoop();

  // Runs on a pool worker: executes one admitted request end to end and
  // writes the response.
  void Execute(const Pending& pending);

  // Inline (reader-thread) ops.
  std::string HandleOpenSession(const Request& request);
  std::string HandleCloseSession(const Request& request);
  std::string HandleStats(const Request& request);

  EngineOptions RequestEngineOptions(const Request& request,
                                     AdmissionVerdict verdict) const;

  void WriteResponse(const std::shared_ptr<Connection>& conn,
                     const std::string& line);

  ServerOptions options_;
  SessionRegistry sessions_;
  AdmissionQueue<Pending> queue_;
  std::shared_ptr<resilience::CancelToken> drain_cancel_;

  std::unique_ptr<Listener> listener_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::thread accept_thread_;
  std::thread dispatch_thread_;

  std::mutex readers_mu_;
  std::list<Reader> readers_;

  std::mutex drain_mu_;
  std::condition_variable drain_cv_;
  bool dispatcher_done_ = false;

  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
};

}  // namespace serve
}  // namespace dxrec

#endif  // DXREC_SERVE_SERVER_H_
