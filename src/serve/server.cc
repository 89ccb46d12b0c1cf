#include "serve/server.h"

#include <algorithm>
#include <utility>

#include "logic/io.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dxrec {
namespace serve {

const char* AdmissionVerdictName(AdmissionVerdict verdict) {
  switch (verdict) {
    case AdmissionVerdict::kAdmit: return "admit";
    case AdmissionVerdict::kAdmitDegraded: return "admit_degraded";
    case AdmissionVerdict::kShed: return "shed";
  }
  return "?";
}

namespace {

void Count(const char* name, uint64_t n = 1) {
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetCounter(name)->Add(n);
  }
}

void SetGauge(const char* name, int64_t v) {
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetGauge(name)->Set(v);
  }
}

void RecordMicros(const char* name, int64_t micros) {
  if (obs::Enabled()) {
    obs::MetricsRegistry::Global().GetHistogram(name)->Record(
        micros < 0 ? 0 : static_cast<uint64_t>(micros));
  }
}

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

JsonArray AnswersJson(const AnswerSet& answers) {
  JsonArray out;
  out.reserve(answers.size());
  for (const AnswerTuple& tuple : answers) {
    out.push_back(JsonValue(ToString(tuple)));
  }
  return out;
}

}  // namespace

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      queue_(options_.queue_capacity, options_.queue_soft_limit),
      drain_cancel_(std::make_shared<resilience::CancelToken>()) {}

Server::~Server() { Drain(); }

Status Server::Start(std::unique_ptr<Listener> listener) {
  if (started_.exchange(true)) {
    return Status::FailedPrecondition("server already started");
  }
  listener_ = std::move(listener);
  const size_t threads = options_.threads == 0
                             ? util::ThreadPool::HardwareThreads()
                             : options_.threads;
  if (threads > 1) {
    pool_ = std::make_unique<util::ThreadPool>(threads);
  }
  dispatch_thread_ = std::thread([this] { DispatchLoop(); });
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void Server::AcceptLoop() {
  int consecutive_failures = 0;
  while (true) {
    Result<std::unique_ptr<Connection>> conn = listener_->Accept();
    if (!conn.ok()) {
      if (conn.status().code() == StatusCode::kNotFound) break;  // shutdown
      // Transient (or injected) accept failure: count it and keep
      // serving, but bail out of a persistently broken listener.
      Count("serve.accept_errors");
      if (++consecutive_failures >= 64) break;
      continue;
    }
    consecutive_failures = 0;
    Count("serve.connections");
    std::shared_ptr<Connection> shared = std::move(*conn);
    std::lock_guard<std::mutex> lock(readers_mu_);
    if (draining_.load(std::memory_order_relaxed)) {
      shared->Close();
      break;
    }
    ReapReadersLocked();
    Reader& reader = readers_.emplace_back();
    reader.conn = shared;
    reader.thread = std::thread([this, shared, &reader] {
      ReaderLoop(shared);
      reader.done.store(true, std::memory_order_release);
    });
  }
}

void Server::ReapReadersLocked() {
  for (auto it = readers_.begin(); it != readers_.end();) {
    if (it->done.load(std::memory_order_acquire)) {
      it->thread.join();
      it = readers_.erase(it);
    } else {
      ++it;
    }
  }
}

void Server::ReaderLoop(std::shared_ptr<Connection> conn) {
  while (true) {
    Result<std::string> line = conn->ReadLine();
    if (!line.ok()) {
      if (line.status().code() != StatusCode::kNotFound) {
        Count("serve.read_errors");
      }
      break;  // EOF, peer reset, or injected fault: drop the connection
    }
    if (line->empty()) continue;

    std::string id;
    Result<Request> request = ParseRequest(*line, &id);
    if (!request.ok()) {
      Count("serve.bad_requests");
      WriteResponse(
          conn, ErrorResponse(id, WireErrorFromRequestParse(request.status())));
      continue;
    }
    Count("serve.requests");

    if (draining_.load(std::memory_order_relaxed)) {
      Count("serve.draining_rejects");
      WireError draining;
      draining.kind = ErrorKind::kDraining;
      draining.code = StatusCode::kFailedPrecondition;
      draining.message = "server is draining";
      WriteResponse(conn, ErrorResponse(request->id, draining));
      continue;
    }

    switch (request->op) {
      case Op::kPing: {
        JsonObject fields;
        fields["op"] = JsonValue("ping");
        WriteResponse(conn, OkResponse(request->id, std::move(fields)));
        continue;
      }
      case Op::kOpenSession:
        WriteResponse(conn, HandleOpenSession(*request));
        continue;
      case Op::kCloseSession:
        WriteResponse(conn, HandleCloseSession(*request));
        continue;
      case Op::kStats:
        WriteResponse(conn, HandleStats(*request));
        continue;
      case Op::kCertain:
      case Op::kRecover:
      case Op::kAnalyze:
        break;  // admitted below
    }

    Pending pending;
    pending.conn = conn;
    pending.request = std::move(*request);
    pending.enqueued = std::chrono::steady_clock::now();
    std::string pending_id = pending.request.id;
    AdmissionVerdict verdict = queue_.Offer(std::move(pending));
    SetGauge("serve.queue_depth", static_cast<int64_t>(queue_.depth()));
    if (verdict == AdmissionVerdict::kShed) {
      Count("serve.shed");
      WireError shed;
      if (queue_.closed()) {
        shed.kind = ErrorKind::kDraining;
        shed.code = StatusCode::kFailedPrecondition;
        shed.message = "server is draining";
      } else {
        shed.kind = ErrorKind::kOverloaded;
        shed.code = StatusCode::kResourceExhausted;
        shed.message = "admission queue full (capacity " +
                       std::to_string(queue_.capacity()) + ")";
      }
      WriteResponse(conn, ErrorResponse(pending_id, shed));
    }
    // kAdmit / kAdmitDegraded: the dispatcher re-reads the backlog when
    // the request comes up and stamps the final verdict there (the queue
    // may have drained — or grown — while this request waited).
  }
  conn->Close();
}

void Server::DispatchLoop() {
  {
    // One long-lived fork-join scope: its destructor waits for every
    // in-flight request before the dispatcher reports done.
    util::TaskGroup group(pool_.get());
    while (true) {
      std::optional<Pending> pending = queue_.Take();
      if (!pending.has_value()) break;
      SetGauge("serve.queue_depth", static_cast<int64_t>(queue_.depth()));
      // Overload is measured at dispatch: if the queue is still past its
      // soft limit when the request comes up, the backlog is real and
      // the request runs on the short overload deadline.
      pending->verdict = queue_.depth() >= queue_.soft_limit()
                             ? AdmissionVerdict::kAdmitDegraded
                             : AdmissionVerdict::kAdmit;
      Pending item = std::move(*pending);
      group.Run([this, item = std::move(item)] { Execute(item); });
    }
  }
  std::lock_guard<std::mutex> lock(drain_mu_);
  dispatcher_done_ = true;
  drain_cv_.notify_all();
}

EngineOptions Server::RequestEngineOptions(const Request& request,
                                           AdmissionVerdict verdict) const {
  EngineOptions opts = options_.engine;
  // The serve pool is the concurrency; engine calls stay sequential.
  opts.parallel.threads = 1;
  double deadline = request.deadline_ms > 0
                        ? static_cast<double>(request.deadline_ms) / 1000.0
                        : options_.default_deadline_seconds;
  if (verdict == AdmissionVerdict::kAdmitDegraded) {
    deadline = std::min(deadline, options_.overload_deadline_seconds);
  }
  opts.resilience.deadline_seconds = deadline;
  opts.resilience.cancel = drain_cancel_;
  opts.resilience.degrade = true;
  return opts;
}

void Server::Execute(const Pending& pending) {
  const Request& request = pending.request;
  RecordMicros("serve.queue_wait_micros", MicrosSince(pending.enqueued));
  auto start = std::chrono::steady_clock::now();

  // Resolve (Sigma, J): a named session, or an inline one-shot pair
  // whose recovery-set cache dies with the request.
  std::shared_ptr<const Session> session;
  if (!request.session.empty()) {
    Result<std::shared_ptr<const Session>> found =
        sessions_.Find(request.session);
    if (!found.ok()) {
      Count("serve.responses_error");
      WriteResponse(pending.conn,
                    ErrorResponse(request.id,
                                  WireErrorFromStatus(found.status())));
      return;
    }
    session = std::move(*found);
  } else {
    auto inline_session = std::make_shared<Session>();
    Result<DependencySet> sigma = ParseTgdSet(request.sigma);
    Result<Instance> target =
        sigma.ok() ? ParseInstance(request.target)
                   : Result<Instance>(sigma.status());
    if (!sigma.ok() || !target.ok()) {
      Status status = sigma.ok() ? target.status() : sigma.status();
      Count("serve.responses_error");
      WriteResponse(
          pending.conn,
          ErrorResponse(request.id,
                        WireErrorFromStatus(status, /*parse_context=*/true)));
      return;
    }
    inline_session->mapping =
        std::make_shared<const CompiledMapping>(std::move(*sigma));
    inline_session->target = std::move(*target);
    session = std::move(inline_session);
  }

  EngineOptions opts = RequestEngineOptions(request, pending.verdict);
  Engine engine(session->mapping, opts);

  JsonObject fields;
  Status failure;
  switch (request.op) {
    case Op::kCertain: {
      Result<UnionQuery> query = ParseUnionQuery(request.query);
      if (!query.ok()) {
        Count("serve.responses_error");
        WriteResponse(pending.conn,
                      ErrorResponse(request.id,
                                    WireErrorFromStatus(
                                        query.status(),
                                        /*parse_context=*/true)));
        return;
      }
      Result<resilience::Degraded<AnswerSet>> answers =
          engine.CertainAnswersDegraded(*query, session->target,
                                        &session->recovery_set);
      if (!answers.ok()) {
        failure = answers.status();
        break;
      }
      fields["rung"] = JsonValue(answers->info.rung);
      fields["completeness"] = JsonValue(std::string(
          resilience::CompletenessName(answers->info.completeness)));
      fields["answers"] = JsonValue(AnswersJson(answers->value));
      if (!answers->exact()) {
        Count("serve.degraded");
        fields["degraded_cause"] =
            JsonValue(answers->info.cause.ToString());
      }
      break;
    }
    case Op::kRecover: {
      Result<resilience::Degraded<InverseChaseResult>> recovered =
          engine.RecoverDegraded(session->target, &session->recovery_set);
      if (!recovered.ok()) {
        failure = recovered.status();
        break;
      }
      fields["rung"] = JsonValue(recovered->info.rung);
      fields["completeness"] = JsonValue(std::string(
          resilience::CompletenessName(recovered->info.completeness)));
      fields["valid_for_recovery"] =
          JsonValue(recovered->value.valid_for_recovery());
      JsonArray recoveries;
      recoveries.reserve(recovered->value.recoveries.size());
      for (const Instance& instance : recovered->value.recoveries) {
        recoveries.push_back(JsonValue(SerializeInstance(instance)));
      }
      fields["recoveries"] = JsonValue(std::move(recoveries));
      if (!recovered->exact()) {
        Count("serve.degraded");
        fields["degraded_cause"] =
            JsonValue(recovered->info.cause.ToString());
      }
      break;
    }
    case Op::kAnalyze: {
      Result<TractabilityReport> report = engine.Analyze(session->target);
      if (!report.ok()) {
        failure = report.status();
        break;
      }
      fields["all_coverable"] = JsonValue(report->all_coverable);
      fields["unique_cover"] = JsonValue(report->unique_cover);
      fields["quasi_guarded_safe"] = JsonValue(report->quasi_guarded_safe);
      fields["complete_ucq_recovery_exists"] =
          JsonValue(report->complete_ucq_recovery_exists());
      break;
    }
    default:
      failure = Status::Internal("op routed to Execute unexpectedly");
      break;
  }

  RecordMicros("serve.request_micros", MicrosSince(start));
  if (!failure.ok()) {
    Count("serve.responses_error");
    WriteResponse(pending.conn,
                  ErrorResponse(request.id, WireErrorFromStatus(failure)));
    return;
  }
  Count("serve.responses_ok");
  if (pending.verdict == AdmissionVerdict::kAdmitDegraded) {
    fields["overload_admitted"] = JsonValue(true);
  }
  WriteResponse(pending.conn, OkResponse(request.id, std::move(fields)));
}

std::string Server::HandleOpenSession(const Request& request) {
  Result<std::shared_ptr<const Session>> session =
      sessions_.Open(request.session, request.sigma, request.target);
  if (!session.ok()) {
    Count("serve.responses_error");
    WireError error =
        WireErrorFromStatus(session.status(), /*parse_context=*/true);
    if (session.status().code() == StatusCode::kFailedPrecondition) {
      error.kind = ErrorKind::kSessionExists;
    }
    return ErrorResponse(request.id, error);
  }
  Count("serve.responses_ok");
  JsonObject fields;
  fields["session"] = JsonValue((*session)->name);
  fields["sigma_tgds"] =
      JsonValue(static_cast<int64_t>((*session)->mapping->sigma().size()));
  fields["target_atoms"] =
      JsonValue(static_cast<int64_t>((*session)->target.size()));
  return OkResponse(request.id, std::move(fields));
}

std::string Server::HandleCloseSession(const Request& request) {
  Status status = sessions_.Close(request.session);
  if (!status.ok()) {
    Count("serve.responses_error");
    return ErrorResponse(request.id, WireErrorFromStatus(status));
  }
  Count("serve.responses_ok");
  JsonObject fields;
  fields["session"] = JsonValue(request.session);
  return OkResponse(request.id, std::move(fields));
}

std::string Server::HandleStats(const Request& request) {
  Count("serve.responses_ok");
  JsonObject fields;
  fields["sessions"] = JsonValue(static_cast<int64_t>(sessions_.size()));
  fields["queue_depth"] = JsonValue(static_cast<int64_t>(queue_.depth()));
  fields["queue_capacity"] =
      JsonValue(static_cast<int64_t>(queue_.capacity()));
  fields["queue_soft_limit"] =
      JsonValue(static_cast<int64_t>(queue_.soft_limit()));
  fields["draining"] = JsonValue(draining());
  {
    // Reader threads held: the live connections, plus any closed since
    // the last accept reaped them.
    std::lock_guard<std::mutex> lock(readers_mu_);
    fields["connections"] = JsonValue(static_cast<int64_t>(readers_.size()));
  }
  RecoverySetUsage recovery_sets = sessions_.RecoverySets();
  fields["recovery_sets"] =
      JsonValue(static_cast<int64_t>(recovery_sets.sets));
  fields["recovery_set_atoms"] =
      JsonValue(static_cast<int64_t>(recovery_sets.atoms));
  return OkResponse(request.id, std::move(fields));
}

void Server::WriteResponse(const std::shared_ptr<Connection>& conn,
                           const std::string& line) {
  Status status = conn->WriteLine(line);
  if (!status.ok()) {
    // The peer is gone or the write was fault-injected; the request
    // already ran, so all we can do is account for the lost response.
    Count("serve.write_errors");
  }
}

void Server::Drain() {
  if (stopped_.exchange(true)) return;
  draining_.store(true, std::memory_order_relaxed);

  // 1. Stop accepting; new requests on live connections now answer
  //    "draining" (reader check) or shed at the closed queue.
  if (listener_ != nullptr) listener_->Shutdown();
  queue_.Close();

  // 2. Give in-flight work the drain window, then cancel it. With
  //    degradation on, cancelled requests still answer with their sound
  //    rungs rather than erroring.
  if (dispatch_thread_.joinable()) {
    {
      std::unique_lock<std::mutex> lock(drain_mu_);
      bool done = drain_cv_.wait_for(
          lock,
          std::chrono::duration<double>(options_.drain_timeout_seconds),
          [this] { return dispatcher_done_; });
      if (!done) {
        drain_cancel_->Cancel();
        Count("serve.drain_cancelled");
        drain_cv_.wait(lock, [this] { return dispatcher_done_; });
      }
    }
    dispatch_thread_.join();
  }

  // 3. Responses are flushed; close every connection to unblock the
  //    readers, then join them and the accept thread.
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (const Reader& reader : readers_) {
      if (std::shared_ptr<Connection> conn = reader.conn.lock()) {
        conn->Close();
      }
    }
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  // Join outside the lock: a reader still answering a stats request
  // takes readers_mu_ to count connections. Swapping keeps the nodes.
  std::list<Reader> readers;
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    readers.swap(readers_);
  }
  for (Reader& reader : readers) reader.thread.join();

  // 4. Flush telemetry: one final rotation through every registered
  //    exporter, so JSONL/OpenMetrics sinks see the complete run.
  if (obs::Enabled()) {
    obs::Snapshotter::Global().TickOnce(/*t_seconds=*/0);
  }
  pool_.reset();
}

}  // namespace serve
}  // namespace dxrec
