// serve_loadgen: closed-loop load generator for dxrecd (docs/SERVING.md).
//
// Connects N clients to a running dxrecd, opens a session per client (or
// one shared session), and drives `certain` requests back-to-back — each
// client keeps exactly one request in flight, so the next line on its
// connection is always the response to the request it just sent. Session
// names carry a per-run nonce and every session is closed at the end, so
// repeated runs against one long-lived daemon never see each other's
// sessions. A failed open or close fails the run (exit status 1).
// Latencies land in an HDR histogram and the run summary is written as
// JSON (default BENCH_SERVE.json): request counts by outcome, rung
// distribution, and p50/p90/p99/p999/max/mean latency in microseconds.
//
//   $ dxrecd --port=7341 &
//   $ serve_loadgen --port=7341 --clients=8 --requests=200
//
// Flags:
//   --port=<n>          dxrecd port (required)
//   --clients=<n>       concurrent connections (default 4)
//   --requests=<n>      measured requests per client (default 100)
//   --warmup=<n>        unmeasured requests per client first (default 5)
//   --shared-session    all clients share one session (default: one each)
//   --scale=<n>         target-instance atoms in the workload (default 24)
//   --deadline-ms=<n>   per-request deadline; 0 = server default
//   --out=<file>        summary path (default BENCH_SERVE.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/transport.h"
#include "serve/wire.h"

namespace {

using namespace dxrec;  // NOLINT: example brevity

bool MatchFlag(const std::string& arg, const std::string& name,
               const char* fallback, std::string* value) {
  if (arg == name) {
    *value = fallback;
    return true;
  }
  if (arg.rfind(name + "=", 0) == 0) {
    *value = arg.substr(name.size() + 1);
    if (value->empty()) *value = fallback;
    return true;
  }
  return false;
}

struct LoadgenOptions {
  int port = 0;
  size_t clients = 4;
  size_t requests = 100;
  size_t warmup = 5;
  bool shared_session = false;
  size_t scale = 24;
  int64_t deadline_ms = 0;
  std::string out = "BENCH_SERVE.json";
  std::string nonce;  // per-run session-name suffix
};

// A fresh per-run nonce for session names.
std::string RunNonce() {
  std::random_device device;
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%08x%08x", device(), device());
  return buffer;
}

std::string SessionName(const LoadgenOptions& options, size_t client) {
  std::string name = "load-" + options.nonce;
  if (!options.shared_session) name += "-" + std::to_string(client);
  return name;
}

// Workload: the paper's existential projection shape. Every T1 atom has
// a cover, so `certain` does real inverse-chase work that grows with
// --scale, and the source-schema query has non-empty certain answers.
const char kSigma[] = "S1(x) -> exists y: T1(x, y)";
const char kQuery[] = "Q(x) :- S1(x)";

std::string WorkloadTarget(size_t scale) {
  std::string target = "{";
  for (size_t i = 0; i < scale; ++i) {
    if (i > 0) target += ", ";
    target += "T1(a" + std::to_string(i) + ", b" + std::to_string(i) + ")";
  }
  target += "}";
  return target;
}

// Tallies shared by the client threads.
struct Tally {
  std::mutex mu;
  uint64_t ok = 0;
  uint64_t degraded = 0;          // ok but rung below exact
  uint64_t overload_admitted = 0;
  uint64_t shed = 0;              // error kind "overloaded"
  uint64_t errors = 0;            // every other error
  uint64_t transport_failures = 0;
  uint64_t open_failures = 0;   // open_session answered with an error
  uint64_t close_failures = 0;  // close_session failed or errored
  std::map<std::string, uint64_t> rungs;
  std::map<std::string, uint64_t> error_kinds;
};

// One request/response round trip; returns false on a transport error.
bool RoundTrip(serve::Connection& conn, const std::string& line,
               std::string* response) {
  if (!conn.WriteLine(line).ok()) return false;
  Result<std::string> reply = conn.ReadLine();
  if (!reply.ok()) return false;
  *response = std::move(*reply);
  return true;
}

// The error kind of a response ("" when it is ok, "unknown" when the
// line is not a well-formed response).
std::string ErrorKind(const std::string& response) {
  Result<serve::JsonValue> parsed = serve::ParseJson(response);
  if (!parsed.ok()) return "unknown";
  const serve::JsonValue* ok = parsed->Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->AsBool()) return "";
  if (const serve::JsonValue* error = parsed->Find("error")) {
    if (const serve::JsonValue* kind = error->Find("kind")) {
      if (kind->is_string()) return kind->AsString();
    }
  }
  return "unknown";
}

// Sends close_session for `session`; false (with a stderr line) when the
// round trip fails or the daemon answers with an error.
bool CloseSession(serve::Connection& conn, const std::string& session,
                  const std::string& id) {
  serve::JsonObject close;
  close["id"] = serve::JsonValue(id);
  close["op"] = serve::JsonValue("close_session");
  close["session"] = serve::JsonValue(session);
  std::string response;
  if (!RoundTrip(conn, serve::JsonValue(std::move(close)).Serialize(),
                 &response)) {
    std::fprintf(stderr, "serve_loadgen: close_session %s: transport error\n",
                 session.c_str());
    return false;
  }
  if (!ErrorKind(response).empty()) {
    std::fprintf(stderr, "serve_loadgen: close_session %s failed: %s\n",
                 session.c_str(), response.c_str());
    return false;
  }
  return true;
}

void RecordResponse(const std::string& response, Tally* tally) {
  Result<serve::JsonValue> parsed = serve::ParseJson(response);
  std::lock_guard<std::mutex> lock(tally->mu);
  if (!parsed.ok()) {
    ++tally->transport_failures;
    return;
  }
  const serve::JsonValue* ok = parsed->Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->AsBool()) {
    ++tally->ok;
    if (const serve::JsonValue* rung = parsed->Find("rung")) {
      if (rung->is_string()) {
        ++tally->rungs[rung->AsString()];
        if (rung->AsString() != "exact") ++tally->degraded;
      }
    }
    if (parsed->Find("overload_admitted") != nullptr) {
      ++tally->overload_admitted;
    }
    return;
  }
  std::string kind = "unknown";
  if (const serve::JsonValue* error = parsed->Find("error")) {
    if (const serve::JsonValue* k = error->Find("kind")) {
      if (k->is_string()) kind = k->AsString();
    }
  }
  ++tally->error_kinds[kind];
  if (kind == "overloaded") {
    ++tally->shed;
  } else {
    ++tally->errors;
  }
}

void ClientLoop(const LoadgenOptions& options, size_t client,
                obs::Histogram* latency, Tally* tally) {
  Result<std::unique_ptr<serve::Connection>> conn =
      serve::TcpConnect(options.port);
  if (!conn.ok()) {
    std::lock_guard<std::mutex> lock(tally->mu);
    tally->transport_failures += options.requests;
    return;
  }

  const std::string session = SessionName(options, client);
  serve::JsonObject open;
  open["id"] = serve::JsonValue("open-" + std::to_string(client));
  open["op"] = serve::JsonValue("open_session");
  open["session"] = serve::JsonValue(session);
  open["sigma"] = serve::JsonValue(kSigma);
  open["target"] = serve::JsonValue(WorkloadTarget(options.scale));
  std::string response;
  if (!RoundTrip(**conn, serve::JsonValue(std::move(open)).Serialize(),
                 &response)) {
    std::lock_guard<std::mutex> lock(tally->mu);
    tally->transport_failures += options.requests;
    return;
  }
  // Under --shared-session every client opens the same name; the losers
  // get session_exists, which means the session is there — exactly what
  // we need. Any other error means there is no session to query.
  const std::string open_error = ErrorKind(response);
  if (!open_error.empty() &&
      !(options.shared_session && open_error == "session_exists")) {
    std::fprintf(stderr, "serve_loadgen: client %zu: open_session %s "
                 "failed: %s\n", client, session.c_str(), response.c_str());
    std::lock_guard<std::mutex> lock(tally->mu);
    ++tally->open_failures;
    return;
  }

  serve::JsonObject request;
  request["op"] = serve::JsonValue("certain");
  request["session"] = serve::JsonValue(session);
  request["query"] = serve::JsonValue(kQuery);
  if (options.deadline_ms > 0) {
    request["deadline_ms"] = serve::JsonValue(options.deadline_ms);
  }

  for (size_t i = 0; i < options.warmup + options.requests; ++i) {
    request["id"] =
        serve::JsonValue(std::to_string(client) + "-" + std::to_string(i));
    const std::string line = serve::JsonValue(request).Serialize();
    auto start = std::chrono::steady_clock::now();
    if (!RoundTrip(**conn, line, &response)) {
      std::lock_guard<std::mutex> lock(tally->mu);
      ++tally->transport_failures;
      return;  // connection is gone; stop this client
    }
    auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    if (i < options.warmup) continue;
    latency->Record(micros < 0 ? 0 : static_cast<uint64_t>(micros));
    RecordResponse(response, tally);
  }
  // A shared session is closed by main() once every client is done.
  if (!options.shared_session &&
      !CloseSession(**conn, session, "close-" + std::to_string(client))) {
    std::lock_guard<std::mutex> lock(tally->mu);
    ++tally->close_failures;
  }
}

serve::JsonObject CountsJson(const std::map<std::string, uint64_t>& counts) {
  serve::JsonObject out;
  for (const auto& [key, count] : counts) {
    out[key] = serve::JsonValue(static_cast<int64_t>(count));
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  LoadgenOptions options;
  std::string port_str, clients_str, requests_str, warmup_str, shared_str;
  std::string scale_str, deadline_str, out_str;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (MatchFlag(arg, "--port", "0", &port_str) ||
        MatchFlag(arg, "--clients", "4", &clients_str) ||
        MatchFlag(arg, "--requests", "100", &requests_str) ||
        MatchFlag(arg, "--warmup", "5", &warmup_str) ||
        MatchFlag(arg, "--shared-session", "1", &shared_str) ||
        MatchFlag(arg, "--scale", "24", &scale_str) ||
        MatchFlag(arg, "--deadline-ms", "0", &deadline_str) ||
        MatchFlag(arg, "--out", "BENCH_SERVE.json", &out_str)) {
      continue;
    }
    std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
    return 1;
  }
  options.port = static_cast<int>(std::strtol(port_str.c_str(), nullptr, 10));
  if (options.port <= 0) {
    std::fprintf(stderr, "serve_loadgen: --port=<n> is required\n");
    return 1;
  }
  if (!clients_str.empty()) {
    options.clients = std::strtoull(clients_str.c_str(), nullptr, 10);
  }
  if (!requests_str.empty()) {
    options.requests = std::strtoull(requests_str.c_str(), nullptr, 10);
  }
  if (!warmup_str.empty()) {
    options.warmup = std::strtoull(warmup_str.c_str(), nullptr, 10);
  }
  options.shared_session = !shared_str.empty();
  if (!scale_str.empty()) {
    options.scale = std::strtoull(scale_str.c_str(), nullptr, 10);
  }
  if (!deadline_str.empty()) {
    options.deadline_ms = std::strtoll(deadline_str.c_str(), nullptr, 10);
  }
  if (!out_str.empty()) options.out = out_str;
  if (options.clients == 0) options.clients = 1;
  options.nonce = RunNonce();

  auto latency = std::make_unique<obs::Histogram>();
  Tally tally;
  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(options.clients);
  for (size_t c = 0; c < options.clients; ++c) {
    clients.emplace_back([&options, c, &latency, &tally] {
      ClientLoop(options, c, latency.get(), &tally);
    });
  }
  for (std::thread& t : clients) t.join();
  if (options.shared_session) {
    Result<std::unique_ptr<serve::Connection>> conn =
        serve::TcpConnect(options.port);
    if (!conn.ok() ||
        !CloseSession(**conn, SessionName(options, 0), "close-shared")) {
      ++tally.close_failures;
    }
  }
  double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  serve::JsonObject config;
  config["port"] = serve::JsonValue(static_cast<int64_t>(options.port));
  config["clients"] = serve::JsonValue(static_cast<int64_t>(options.clients));
  config["requests_per_client"] =
      serve::JsonValue(static_cast<int64_t>(options.requests));
  config["warmup_per_client"] =
      serve::JsonValue(static_cast<int64_t>(options.warmup));
  config["shared_session"] = serve::JsonValue(options.shared_session);
  config["scale"] = serve::JsonValue(static_cast<int64_t>(options.scale));
  config["deadline_ms"] = serve::JsonValue(options.deadline_ms);
  config["session_prefix"] = serve::JsonValue("load-" + options.nonce);

  serve::JsonObject latency_json;
  latency_json["count"] =
      serve::JsonValue(static_cast<int64_t>(latency->Count()));
  latency_json["p50"] =
      serve::JsonValue(static_cast<int64_t>(latency->ValueAtQuantile(0.50)));
  latency_json["p90"] =
      serve::JsonValue(static_cast<int64_t>(latency->ValueAtQuantile(0.90)));
  latency_json["p99"] =
      serve::JsonValue(static_cast<int64_t>(latency->ValueAtQuantile(0.99)));
  latency_json["p999"] =
      serve::JsonValue(static_cast<int64_t>(latency->ValueAtQuantile(0.999)));
  latency_json["max"] = serve::JsonValue(static_cast<int64_t>(latency->Max()));
  latency_json["mean"] = serve::JsonValue(latency->Mean());

  serve::JsonObject summary;
  summary["config"] = serve::JsonValue(std::move(config));
  summary["elapsed_seconds"] = serve::JsonValue(elapsed);
  summary["throughput_rps"] = serve::JsonValue(
      elapsed > 0 ? static_cast<double>(latency->Count()) / elapsed : 0.0);
  summary["ok"] = serve::JsonValue(static_cast<int64_t>(tally.ok));
  summary["degraded"] = serve::JsonValue(static_cast<int64_t>(tally.degraded));
  summary["overload_admitted"] =
      serve::JsonValue(static_cast<int64_t>(tally.overload_admitted));
  summary["shed"] = serve::JsonValue(static_cast<int64_t>(tally.shed));
  summary["errors"] = serve::JsonValue(static_cast<int64_t>(tally.errors));
  summary["transport_failures"] =
      serve::JsonValue(static_cast<int64_t>(tally.transport_failures));
  summary["open_failures"] =
      serve::JsonValue(static_cast<int64_t>(tally.open_failures));
  summary["close_failures"] =
      serve::JsonValue(static_cast<int64_t>(tally.close_failures));
  summary["rungs"] = serve::JsonValue(CountsJson(tally.rungs));
  summary["error_kinds"] = serve::JsonValue(CountsJson(tally.error_kinds));
  summary["latency_micros"] = serve::JsonValue(std::move(latency_json));

  const std::string text = serve::JsonValue(std::move(summary)).Serialize();
  std::FILE* out = std::fopen(options.out.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "serve_loadgen: cannot write %s\n",
                 options.out.c_str());
    return 1;
  }
  std::fprintf(out, "%s\n", text.c_str());
  std::fclose(out);

  std::printf(
      "serve_loadgen: %llu measured requests in %.2fs "
      "(ok=%llu degraded=%llu shed=%llu errors=%llu) "
      "p50=%lluus p99=%lluus p999=%lluus -> %s\n",
      static_cast<unsigned long long>(latency->Count()), elapsed,
      static_cast<unsigned long long>(tally.ok),
      static_cast<unsigned long long>(tally.degraded),
      static_cast<unsigned long long>(tally.shed),
      static_cast<unsigned long long>(tally.errors),
      static_cast<unsigned long long>(latency->ValueAtQuantile(0.50)),
      static_cast<unsigned long long>(latency->ValueAtQuantile(0.99)),
      static_cast<unsigned long long>(latency->ValueAtQuantile(0.999)),
      options.out.c_str());
  if (tally.open_failures > 0 || tally.close_failures > 0) {
    std::fprintf(stderr,
                 "serve_loadgen: %llu open_session and %llu close_session "
                 "failures\n",
                 static_cast<unsigned long long>(tally.open_failures),
                 static_cast<unsigned long long>(tally.close_failures));
    return 1;
  }
  return tally.transport_failures == 0 ? 0 : 2;
}
