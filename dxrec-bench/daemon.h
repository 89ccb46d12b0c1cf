// The benchmark's own dxrecd process handle and NDJSON client.
#ifndef DXREC_BENCH_DAEMON_H_
#define DXREC_BENCH_DAEMON_H_

#include <sys/types.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "serve/transport.h"
#include "serve/wire.h"

namespace dxbench {

// One dxrecd child on an ephemeral loopback port. The child dies with the
// benchmark (PR_SET_PDEATHSIG), so no run can inherit another run's
// daemon or sessions.
class Daemon {
 public:
  // Spawns `binary --port=0 <args>` and waits for its listening line.
  static std::unique_ptr<Daemon> Start(const std::string& binary,
                                       const std::vector<std::string>& args,
                                       std::string* error);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  // SIGTERM, then wait for the drain; true iff dxrecd exited 0.
  bool Stop();

 private:
  Daemon(pid_t pid, int out_fd, int port)
      : pid_(pid), out_fd_(out_fd), port_(port) {}

  pid_t pid_;
  int out_fd_;
  int port_;
  bool stopped_ = false;
};

// One closed-loop connection: each call waits for its reply.
class Client {
 public:
  static std::unique_ptr<Client> Connect(int port, std::string* error);

  // Sends one request line and parses the reply. False on a transport or
  // JSON failure (`error` says which).
  bool Call(const std::string& line, serve::JsonValue* reply,
            std::string* error);

 private:
  explicit Client(std::unique_ptr<serve::Connection> conn)
      : conn_(std::move(conn)) {}
  std::unique_ptr<serve::Connection> conn_;
};

// Serialized request line for `op` with string fields.
std::string RequestLine(const std::string& id, const std::string& op,
                        const std::map<std::string, std::string>& fields);

// True iff `reply` is {"ok": true, ...}; else fills `error` with the
// error kind and message.
bool ReplyOk(const serve::JsonValue& reply, std::string* error);

// Parses an OpenMetrics exposition into histogram bucket lists
// (family -> (upper bound, cumulative count)).
using Buckets = std::vector<std::pair<double, double>>;
std::map<std::string, Buckets> ReadOpenMetricsHistograms(
    const std::string& path);
// Quantile q of a cumulative-bucket histogram: the upper bound of the
// first bucket holding ceil(q * count) samples; 0 when empty.
double BucketQuantile(const Buckets& buckets, double q);

}  // namespace dxbench

#endif  // DXREC_BENCH_DAEMON_H_
