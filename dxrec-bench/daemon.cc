#include "daemon.h"

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "common.h"

namespace dxbench {

std::unique_ptr<Daemon> Daemon::Start(const std::string& binary,
                                      const std::vector<std::string>& args,
                                      std::string* error) {
  std::vector<std::string> argv_text = {binary, "--port=0"};
  argv_text.insert(argv_text.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_text) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int out[2];
  if (pipe(out) != 0) {
    *error = std::string("pipe: ") + std::strerror(errno);
    return nullptr;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    close(out[0]);
    close(out[1]);
    return nullptr;
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out[1]);
  auto daemon = std::unique_ptr<Daemon>(new Daemon(pid, out[0], 0));

  // "dxrecd listening on 127.0.0.1:<port>\n"
  std::string line;
  const Clock::time_point start = Clock::now();
  while (line.find('\n') == std::string::npos) {
    const double left = 10.0 - SecondsSince(start);
    pollfd fd{out[0], POLLIN, 0};
    if (left <= 0 || poll(&fd, 1, static_cast<int>(left * 1000) + 1) <= 0) {
      *error = "dxrecd did not report its port within 10s";
      return nullptr;
    }
    char buf[256];
    const ssize_t n = read(out[0], buf, sizeof(buf));
    if (n <= 0) {
      *error = "dxrecd exited before listening (is " + binary + " built?)";
      return nullptr;
    }
    line.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = line.rfind(':', line.find('\n'));
  daemon->port_ = colon == std::string::npos
                      ? 0
                      : std::atoi(line.c_str() + colon + 1);
  if (line.rfind("dxrecd listening on", 0) != 0 || daemon->port_ <= 0) {
    *error = "unexpected dxrecd banner: " + line;
    return nullptr;
  }
  return daemon;
}

bool Daemon::Stop() {
  if (stopped_) return true;
  stopped_ = true;
  kill(pid_, SIGTERM);
  int status = 0;
  bool exited = false;
  const Clock::time_point start = Clock::now();
  while (SecondsSince(start) < 20) {
    const pid_t done = waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      exited = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  if (!exited) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  close(out_fd_);
  return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

Daemon::~Daemon() { Stop(); }

std::unique_ptr<Client> Client::Connect(int port, std::string* error) {
  dxrec::Result<std::unique_ptr<serve::Connection>> conn =
      serve::TcpConnect(port);
  if (!conn.ok()) {
    *error = conn.status().ToString();
    return nullptr;
  }
  return std::unique_ptr<Client>(new Client(std::move(*conn)));
}

bool Client::Call(const std::string& line, serve::JsonValue* reply,
                  std::string* error) {
  dxrec::Status sent = conn_->WriteLine(line);
  if (!sent.ok()) {
    *error = "transport: " + sent.ToString();
    return false;
  }
  dxrec::Result<std::string> text = conn_->ReadLine();
  if (!text.ok()) {
    *error = "transport: " + text.status().ToString();
    return false;
  }
  dxrec::Result<serve::JsonValue> parsed = serve::ParseJson(*text);
  if (!parsed.ok()) {
    *error = "bad reply: " + parsed.status().ToString();
    return false;
  }
  *reply = std::move(*parsed);
  return true;
}

std::string RequestLine(const std::string& id, const std::string& op,
                        const std::map<std::string, std::string>& fields) {
  serve::JsonObject request;
  request["id"] = serve::JsonValue(id);
  request["op"] = serve::JsonValue(op);
  for (const auto& [key, value] : fields) {
    request[key] = serve::JsonValue(value);
  }
  return serve::JsonValue(std::move(request)).Serialize();
}

bool ReplyOk(const serve::JsonValue& reply, std::string* error) {
  const serve::JsonValue* ok = reply.Find("ok");
  if (ok != nullptr && ok->is_bool() && ok->AsBool()) return true;
  *error = "error reply: " + reply.Serialize();
  return false;
}

std::map<std::string, Buckets> ReadOpenMetricsHistograms(
    const std::string& path) {
  std::map<std::string, Buckets> out;
  std::ifstream in(path);
  std::string line;
  const std::string marker = "_bucket{le=\"";
  while (std::getline(in, line)) {
    const size_t at = line.find(marker);
    if (at == std::string::npos) continue;
    const size_t le_end = line.find('"', at + marker.size());
    const std::string le = line.substr(at + marker.size(),
                                       le_end - at - marker.size());
    if (le == "+Inf") continue;
    const size_t space = line.rfind(' ');
    out[line.substr(0, at)].emplace_back(std::strtod(le.c_str(), nullptr),
                                         std::strtod(line.c_str() + space + 1,
                                                     nullptr));
  }
  return out;
}

double BucketQuantile(const Buckets& buckets, double q) {
  if (buckets.empty() || buckets.back().second <= 0) return 0;
  const double target = std::max(1.0, std::ceil(q * buckets.back().second));
  for (const auto& [upper, cumulative] : buckets) {
    if (cumulative >= target) return upper;
  }
  return buckets.back().first;
}

}  // namespace dxbench
