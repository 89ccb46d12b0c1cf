// dxrec_bench: runs one dxrec-bench workload and prints its metrics.
//
//   dxrec_bench --workload=<serve-hot|serve-churn|engine-batch> --seed=<n>
//               --seconds=<s> --trace=<0|1> --dxrecd=<path> --out-dir=<dir>
//
// An untraced run prints the end-to-end metrics; a traced run prints the
// per-layer metrics and writes its spans to <out-dir>. The last stdout
// line is one JSON object {correct, attempted, failed, metrics}; notes and
// check failures go to stderr. Exits 0 iff every output check passed.
// README.md next to this file describes the workloads and metrics.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "daemon.h"
#include "layers.h"
#include "logic/parser.h"
#include "workloads.h"

namespace dxbench {
namespace {

// One client per core of the 4-core reference machine.
constexpr size_t kConnections = 4;
// dxrecd's worker count: fewer workers than connections, so requests
// queue and serve.queue_wait is measured under contention.
constexpr const char* kDaemonThreads = "--threads=2";
// Engine threads of engine-batch's timed calls. On a shared 4-core host
// a fork-join call waits on whichever worker the host preempted, which
// adds its own noise to the host's slow spells: at 2 or 4 workers
// Blowup's median latency moved by 30-50% between runs of the same code.
// The thread pool is measured at kPoolThreads in the traced run
// (pool.speedup, pool.cpu_util).
constexpr size_t kBatchThreads = 1;
constexpr size_t kPoolThreads = 2;
// Set-ups per untraced run of the served workloads, half before and half
// after the timed window; setup_s is their median. engine-batch instead
// sets up once per kBatchSetupEvery seconds inside the window, in pauses
// left out of the timing, and setup_s is the median of those made in the
// window's fastest quarter (see FastQuarter).
constexpr int kServedSetups = 15;
constexpr double kBatchSetupEvery = 0.5;
// serve-churn: the mapping corpus. It is drawn from a fixed seed, so its
// cost mix is the same in every run; the run's seed picks each cycle's
// mapping and every cycle renames it apart.
constexpr size_t kChurnTemplates = 256;
constexpr uint64_t kChurnCorpusSeed = 2015;
// Replay phase of the traced run.
constexpr size_t kHotReplayOps = 64;
constexpr size_t kChurnReplayCycles = 40;
constexpr size_t kBatchReplayOps = 64;
constexpr int kSpeedupReps = 9;
// Slice length of the fastest-quarter selection (see FastQuarter).
constexpr double kSliceSeconds = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string dxrecd;
  std::string out_dir = ".bench_out";
};

// Check failures from every thread: a count plus the first few messages.
class Errors {
 public:
  void Add(const std::string& message) {
    std::lock_guard<std::mutex> lock(mu_);
    if (messages_.size() < 8) messages_.push_back(message);
    ++count_;
  }
  size_t count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return count_;
  }
  void Print() const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::string& message : messages_) {
      std::fprintf(stderr, "dxrec-bench: check failed: %s\n", message.c_str());
    }
    if (count_ > messages_.size()) {
      std::fprintf(stderr, "dxrec-bench: ... %zu failures in all\n", count_);
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> messages_;
  size_t count_ = 0;
};

// One closed-loop timed window.
struct Window {
  Clock::time_point start = Clock::now();
  std::vector<double> latency_ms;  // every completed operation
  std::vector<double> done_s;      // its completion, seconds after start
  std::vector<bool> is_ok;         // whether it completed OK
  std::vector<double> setup_s;     // set-ups made inside the window
  std::vector<double> setup_at_s;  // when, seconds after start
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t degraded = 0;  // answered ok, but from an unexpected rung
  double seconds = 0;

  void Record(double latency, bool is_ok, bool is_degraded) {
    ++attempted;
    latency_ms.push_back(latency * 1e3);
    done_s.push_back(SecondsSince(start));
    this->is_ok.push_back(is_ok);
    if (!is_ok) {
      ++failed;
    } else if (is_degraded) {
      ++degraded;
    }
  }
  void Merge(const Window& other) {
    latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                      other.latency_ms.end());
    done_s.insert(done_s.end(), other.done_s.begin(), other.done_s.end());
    is_ok.insert(is_ok.end(), other.is_ok.begin(), other.is_ok.end());
    setup_s.insert(setup_s.end(), other.setup_s.begin(), other.setup_s.end());
    setup_at_s.insert(setup_at_s.end(), other.setup_at_s.begin(),
                      other.setup_at_s.end());
    attempted += other.attempted;
    failed += other.failed;
    degraded += other.degraded;
  }
};

// The operations of the fastest quarter of the window: the window is cut
// into slices of about kSliceSeconds by completion time, and the slices
// with the lowest median latency are kept.
struct FastQuarter {
  std::vector<double> latency_ms;
  std::vector<double> setup_s;
  uint64_t ok = 0;
  double seconds = 0;
};

FastQuarter TakeFastQuarter(const Window& window) {
  const size_t count =
      std::max<long>(1, std::lround(window.seconds / kSliceSeconds));
  struct Slice {
    std::vector<double> latency_ms;
    std::vector<double> setup_s;
    uint64_t ok = 0;
    double median = 0;
  };
  std::vector<Slice> slices(count);
  auto slice_at = [&](double at_s) -> Slice& {
    const double at = window.seconds > 0 ? at_s / window.seconds : 0;
    return slices[std::min(count - 1, static_cast<size_t>(at * count))];
  };
  for (size_t i = 0; i < window.latency_ms.size(); ++i) {
    Slice& slice = slice_at(window.done_s[i]);
    slice.latency_ms.push_back(window.latency_ms[i]);
    if (window.is_ok[i]) ++slice.ok;
  }
  for (size_t i = 0; i < window.setup_s.size(); ++i) {
    slice_at(window.setup_at_s[i]).setup_s.push_back(window.setup_s[i]);
  }
  for (Slice& slice : slices) {
    slice.median = slice.latency_ms.empty()
                       ? std::numeric_limits<double>::infinity()
                       : Median(slice.latency_ms);
  }
  std::sort(slices.begin(), slices.end(), [](const Slice& a, const Slice& b) {
    return a.median < b.median;
  });
  FastQuarter fast;
  const size_t keep = (count + 3) / 4;
  for (size_t s = 0; s < keep; ++s) {
    fast.latency_ms.insert(fast.latency_ms.end(), slices[s].latency_ms.begin(),
                           slices[s].latency_ms.end());
    fast.setup_s.insert(fast.setup_s.end(), slices[s].setup_s.begin(),
                        slices[s].setup_s.end());
    fast.ok += slices[s].ok;
  }
  fast.seconds = window.seconds * static_cast<double>(keep) /
                 static_cast<double>(count);
  return fast;
}

double OkPerSecond(const FastQuarter& fast) {
  return fast.seconds > 0 ? fast.ok / fast.seconds : 0;
}

// A seeded rotation: each round visits every item once, in a fresh
// shuffled order, so any stretch of a run holds the workload's mix.
template <typename T>
class Rotation {
 public:
  Rotation(std::vector<T> items, uint64_t seed)
      : order_(std::move(items)), rng_(seed), next_(order_.size()) {}
  const T& Next() {
    if (next_ == order_.size()) {
      std::shuffle(order_.begin(), order_.end(), rng_);
      next_ = 0;
    }
    return order_[next_++];
  }

 private:
  std::vector<T> order_;
  std::mt19937_64 rng_;
  size_t next_;
};

// dxrecd runs every request on a threads=1 engine with its default
// 5 s deadline; the replay mirrors that.
EngineOptions ServeEngineOptions() {
  return EngineOptions().WithThreads(1).WithDeadline(5.0);
}

std::string RunId(uint64_t seed) {
  const uint64_t now =
      static_cast<uint64_t>(Clock::now().time_since_epoch().count());
  char text[32];
  std::snprintf(text, sizeof(text), "%llx",
                static_cast<unsigned long long>(
                    Mix(Mix(seed, static_cast<uint64_t>(getpid())), now) &
                    0xffffffffffull));
  return text;
}

// The phases every workload goes through; Run() sequences them.
class Workload {
 public:
  Workload(const Args& args, Errors* errors)
      : args_(args), errors_(errors), run_id_(RunId(args.seed)) {}
  virtual ~Workload() = default;

  // Generates the inputs and computes the threads=1 references, checking
  // them against the paper's stated values. False on a failed check.
  virtual bool Prepare() = 0;
  // One set-up, from launch until the first operation could be timed;
  // returns its seconds, or a negative value on failure. A non-null
  // tracer selects the traced configuration.
  virtual double SetUp(Tracer* tracer) = 0;
  virtual int setups() const = 0;
  // Untimed, checked operations that run every code path once.
  virtual void Warm() = 0;
  virtual Window Measure(double seconds, Tracer* tracer) = 0;
  // Undoes SetUp and records the peak RSS of the measured process.
  virtual void TearDown(Tracer* tracer) = 0;
  // Replays a prefix of the workload in-process, one span per layer call.
  virtual void Replay(Tracer* tracer, LayerCounts* counts) = 0;
  // Per-layer metrics only this workload measures.
  virtual void AddLayerMetrics(const Tracer& tracer,
                               std::map<std::string, double>* out) = 0;

  double rss_mb() const { return rss_mb_; }

 protected:
  const Args& args_;
  Errors* errors_;
  const std::string run_id_;
  double rss_mb_ = 0;
};

// --- Served workloads ---------------------------------------------------

class ServedWorkload : public Workload {
 public:
  using Workload::Workload;
  int setups() const override { return kServedSetups; }

  void AddLayerMetrics(const Tracer& tracer,
                       std::map<std::string, double>* out) override {
    const std::map<std::string, Buckets> histograms =
        ReadOpenMetricsHistograms(metrics_path_);
    auto quantile = [&histograms](const char* family, double q) {
      auto it = histograms.find(family);
      return it == histograms.end() ? 0.0 : BucketQuantile(it->second, q);
    };
    const double exec_p50 = quantile("dxrec_serve_request_micros", 0.5);
    (*out)["serve.queue_wait_us.p50"] =
        quantile("dxrec_serve_queue_wait_micros", 0.5);
    (*out)["serve.queue_wait_us.p99"] =
        quantile("dxrec_serve_queue_wait_micros", 0.99);
    (*out)["serve.exec_us.p50"] = exec_p50;
    std::vector<double> rtt;
    for (const char* op : {"serve.certain", "serve.analyze", "serve.recover"}) {
      for (double d : tracer.Durations(op)) rtt.push_back(d * 1e6);
    }
    (*out)["serve.overhead_us.p50"] = Median(rtt) - exec_p50;
    (*out)["serve.open_session_us.p50"] =
        Median(tracer.Durations("serve.open_session")) * 1e6;
    (*out)["serve.close_session_us.p50"] =
        Median(tracer.Durations("serve.close_session")) * 1e6;
    (*out)["serve.sessions_open"] = static_cast<double>(sessions_open_);
  }

 protected:
  // Starts dxrecd (with an OpenMetrics exposition when traced) and opens
  // kConnections connections to it.
  bool Launch(bool traced) {
    std::vector<std::string> flags = {kDaemonThreads};
    if (traced) {
      metrics_path_ = args_.out_dir + "/dxrecd-" + args_.workload + "-" +
                      std::to_string(args_.seed) + ".om";
      std::remove(metrics_path_.c_str());
      flags.push_back("--openmetrics=" + metrics_path_);
    }
    std::string error;
    daemon_ = Daemon::Start(args_.dxrecd, flags, &error);
    if (daemon_ == nullptr) {
      errors_->Add("dxrecd: " + error);
      return false;
    }
    clients_.clear();
    for (size_t c = 0; c < kConnections; ++c) {
      std::unique_ptr<Client> client = Client::Connect(daemon_->port(), &error);
      if (client == nullptr) {
        errors_->Add("connect: " + error);
        return false;
      }
      clients_.push_back(std::move(client));
    }
    return true;
  }

  // Checks that no session is left, records dxrecd's peak RSS and stops it.
  void Shutdown() {
    if (daemon_ == nullptr) return;
    serve::JsonValue reply;
    std::string error;
    sessions_open_ = -1;
    if (!clients_.empty() &&
        clients_[0]->Call(RequestLine("stats", "stats", {}), &reply, &error) &&
        ReplyOk(reply, &error)) {
      if (const serve::JsonValue* sessions = reply.Find("sessions")) {
        sessions_open_ = sessions->AsInt();
      }
    } else {
      errors_->Add("stats: " + error);
    }
    if (sessions_open_ != 0) {
      errors_->Add("dxrecd still holds " + std::to_string(sessions_open_) +
                   " sessions after the run closed its own");
    }
    rss_mb_ = PeakRssMb(daemon_->pid());
    clients_.clear();
    if (!daemon_->Stop()) errors_->Add("dxrecd did not drain and exit 0");
    daemon_.reset();
  }

  enum class Outcome { kOk, kFailed, kBroken };
  using Check = std::function<std::string(const serve::JsonValue&)>;

  static std::string NoCheck(const serve::JsonValue&) { return ""; }

  // One timed request on connection `c`. `check` returns "" when the reply
  // is right and says why not otherwise; `rung` is the rung the reply must
  // name ("" = none). `window` may be null (untimed requests).
  Outcome Exchange(size_t c, const std::string& line, const char* span_name,
                   const char* rung, Tracer* tracer, Window* window,
                   const Check& check) {
    const uint64_t op = tracer != nullptr ? tracer->NextId() : 0;
    Span span(tracer, span_name, op);
    serve::JsonValue reply;
    std::string error;
    const bool sent = clients_[c]->Call(line, &reply, &error);
    const double latency = span.End();
    bool ok = sent && ReplyOk(reply, &error);
    if (ok) {
      error = check(reply);
      ok = error.empty();
    }
    const bool degraded = ok && rung[0] != '\0' && WireRung(reply) != rung;
    if (window != nullptr) window->Record(latency, ok, degraded);
    if (!ok) errors_->Add(std::string(span_name) + ": " + error);
    if (degraded) {
      errors_->Add(std::string(span_name) + ": answered on rung " +
                   WireRung(reply));
    }
    if (!sent) return Outcome::kBroken;
    return ok ? Outcome::kOk : Outcome::kFailed;
  }

  // Runs `loop(connection, end, window)` on one thread per connection.
  Window RunLoops(
      double seconds,
      const std::function<void(size_t, Clock::time_point, Window*)>& loop) {
    const Clock::time_point start = Clock::now();
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    std::vector<Window> windows(clients_.size());
    for (Window& window : windows) window.start = start;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients_.size(); ++c) {
      threads.emplace_back([&loop, &windows, c, end] {
        loop(c, end, &windows[c]);
      });
    }
    for (std::thread& thread : threads) thread.join();
    Window total;
    total.start = start;
    for (const Window& window : windows) total.Merge(window);
    total.seconds = SecondsSince(start);
    return total;
  }

  std::unique_ptr<Daemon> daemon_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::string metrics_path_;
  int64_t sessions_open_ = -1;
  // Set when an open_session fails: the run is void and every loop stops.
  std::atomic<bool> abort_{false};
};

// serve-hot: long-lived sessions over the paper scenarios, queried in a
// seeded rotation.
class HotWorkload : public ServedWorkload {
 public:
  using ServedWorkload::ServedWorkload;

  bool Prepare() override {
    scenarios_ = HotScenarios(args_.seed);
    for (size_t s = 0; s < scenarios_.size(); ++s) {
      std::string error;
      std::optional<Parsed> parsed = Parse(scenarios_[s], &error);
      if (!parsed) {
        errors_->Add(error);
        return false;
      }
      Engine engine(parsed->sigma, ReferenceOptions());
      expected_.emplace_back();
      for (size_t q = 0; q < parsed->queries.size(); ++q) {
        dxrec::Result<AnswerSet> answers =
            engine.CertainAnswers(parsed->queries[q], parsed->target);
        if (!answers.ok()) {
          errors_->Add(scenarios_[s].name + ": " + answers.status().ToString());
          return false;
        }
        const std::string& paper = scenarios_[s].paper_answers[q];
        if (!paper.empty() && Canonical(*answers) != paper) {
          errors_->Add(scenarios_[s].name + " " + scenarios_[s].queries[q] +
                       ": " + Canonical(*answers) + ", the paper states " +
                       paper);
          return false;
        }
        expected_.back().push_back(Canonical(*answers));
        pairs_.emplace_back(s, q);
      }
    }
    return true;
  }

  double SetUp(Tracer* tracer) override {
    const Clock::time_point start = Clock::now();
    if (!Launch(tracer != nullptr)) return -1;
    ++setup_count_;
    lines_.assign(kConnections, {});
    sessions_.assign(kConnections, {});
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kConnections; ++c) {
      threads.emplace_back([this, c, tracer] { OpenSessions(c, tracer); });
    }
    for (std::thread& thread : threads) thread.join();
    return abort_ ? -1 : SecondsSince(start);
  }

  void Warm() override {
    RunLoops(0, [this](size_t c, Clock::time_point, Window*) {
      for (const auto& [s, q] : pairs_) {
        if (Certain(c, s, q, nullptr, nullptr) == Outcome::kBroken) return;
      }
    });
  }

  Window Measure(double seconds, Tracer* tracer) override {
    return RunLoops(seconds, [this, tracer](size_t c, Clock::time_point end,
                                            Window* window) {
      Rotation<std::pair<size_t, size_t>> rotation(pairs_, Mix(args_.seed, c));
      while (Clock::now() < end && !abort_) {
        const auto [s, q] = rotation.Next();
        if (Certain(c, s, q, tracer, window) == Outcome::kBroken) return;
      }
    });
  }

  void TearDown(Tracer* tracer) override {
    for (size_t c = 0; c < clients_.size() && c < sessions_.size(); ++c) {
      for (const std::string& session : sessions_[c]) {
        Exchange(c,
                 RequestLine("close", "close_session", {{"session", session}}),
                 "serve.close_session", "", tracer, nullptr, NoCheck);
      }
    }
    sessions_.clear();
    Shutdown();
  }

  // Connection 0's first operations, as dxrecd runs them: a session's
  // parse and warm-up on its first use, then per request the query parse,
  // a threads=1 Engine and CertainAnswers, plus the pipeline breakdown.
  void Replay(Tracer* tracer, LayerCounts* counts) override {
    std::vector<std::optional<Parsed>> sessions(scenarios_.size());
    Rotation<std::pair<size_t, size_t>> rotation(pairs_, Mix(args_.seed, 0));
    for (size_t i = 0; i < kHotReplayOps; ++i) {
      const auto [s, q] = rotation.Next();
      const uint64_t op = tracer->NextId();
      Span root(tracer, "op.certain", op);
      const SpanContext at{tracer, op, root.id()};
      std::string error;
      if (!sessions[s]) {
        sessions[s] = TimeOpen(scenarios_[s], at, counts, &error);
      }
      if (!sessions[s]) {
        errors_->Add("replay: " + error);
        return;
      }
      std::optional<UnionQuery> query;
      std::optional<Engine> engine;
      {
        SymbolGrowth growth(counts);
        {
          Span span(tracer, "logic.parse_query", op, root.id());
          dxrec::Result<UnionQuery> parsed =
              dxrec::ParseUnionQuery(scenarios_[s].queries[q]);
          if (parsed.ok()) query = std::move(*parsed);
        }
        {
          Span span(tracer, "core.engine_new", op, root.id());
          engine.emplace(sessions[s]->sigma, ServeEngineOptions());
        }
        Span span(tracer, "core.certain", op, root.id());
        if (query) (void)engine->CertainAnswers(*query, sessions[s]->target);
      }
      TimePipeline(*engine, *sessions[s], query ? &*query : nullptr, false,
                   at, counts);
      ++counts->ops;
    }
  }

 private:
  void OpenSessions(size_t c, Tracer* tracer) {
    for (const Scenario& scenario : scenarios_) {
      const std::string session = "hot-" + run_id_ + "-" +
                                  std::to_string(setup_count_) + "-c" +
                                  std::to_string(c) + "-" + scenario.name;
      const Outcome outcome =
          Exchange(c,
                   RequestLine("open", "open_session",
                               {{"session", session},
                                {"sigma", scenario.sigma},
                                {"target", scenario.target}}),
                   "serve.open_session", "", tracer, nullptr, NoCheck);
      if (outcome != Outcome::kOk) {
        abort_ = true;
        return;
      }
      sessions_[c].push_back(session);
      lines_[c].emplace_back();
      for (const std::string& query : scenario.queries) {
        lines_[c].back().push_back(RequestLine(
            "certain", "certain", {{"session", session}, {"query", query}}));
      }
    }
  }

  Outcome Certain(size_t c, size_t s, size_t q, Tracer* tracer,
                  Window* window) {
    const std::string& expected = expected_[s][q];
    return Exchange(c, lines_[c][s][q], "serve.certain", "exact", tracer,
                    window, [&](const serve::JsonValue& reply) {
                      const std::string got = WireAnswers(reply);
                      if (got == expected) return std::string();
                      return scenarios_[s].name + " " +
                             scenarios_[s].queries[q] + " gave " +
                             got.substr(0, 80);
                    });
  }

  std::vector<Scenario> scenarios_;
  std::vector<std::vector<std::string>> expected_;  // [scenario][query]
  std::vector<std::pair<size_t, size_t>> pairs_;
  int setup_count_ = 0;
  std::vector<std::vector<std::string>> sessions_;  // [connection][scenario]
  std::vector<std::vector<std::vector<std::string>>> lines_;  // [c][s][q]
};

// serve-churn: every cycle opens a session on a fresh random mapping,
// runs analyze, two certain and one recover, and closes it.
class ChurnWorkload : public ServedWorkload {
 public:
  using ServedWorkload::ServedWorkload;

  // A drawn mapping whose threads=1 reference trips these budgets (or runs
  // past 250 ms) is left out, so that every served operation is small,
  // none fails, and no rare mapping sets the tail latency.
  static EngineOptions TemplateOptions() {
    EngineOptions options = ReferenceOptions().WithDeadline(0.25);
    options.budgets.max_covers = 8;
    options.budgets.max_cover_nodes = 128;
    options.budgets.max_g_homs_per_cover = 64;
    options.budgets.max_recoveries = 16;
    options.budgets.max_sub_nodes = 1u << 12;
    options.budgets.max_sub_constraints = 64;
    return options;
  }

  bool Prepare() override {
    for (size_t index = 0;
         pool_.size() < kChurnTemplates && index < 16 * kChurnTemplates;
         ++index) {
      std::optional<Scenario> scenario = ChurnTemplate(kChurnCorpusSeed, index);
      if (!scenario) continue;
      std::string error;
      std::optional<Parsed> parsed = Parse(*scenario, &error);
      if (!parsed) {
        errors_->Add("churn template: " + error);
        return false;
      }
      Engine engine(parsed->sigma, TemplateOptions());
      dxrec::Result<InverseChaseResult> recovered =
          engine.Recover(parsed->target);
      if (!recovered.ok()) continue;
      dxrec::Result<TractabilityReport> report = engine.Analyze(parsed->target);
      dxrec::Result<AnswerSet> first =
          engine.CertainAnswers(parsed->queries[0], parsed->target);
      dxrec::Result<AnswerSet> second =
          engine.CertainAnswers(parsed->queries[1], parsed->target);
      if (!report.ok() || !first.ok() || !second.ok()) continue;
      pool_.push_back({std::move(*scenario),
                       Canonical(*report),
                       {Canonical(*first), Canonical(*second)},
                       Canonical(*recovered)});
    }
    if (pool_.size() < kChurnTemplates) {
      errors_->Add("only " + std::to_string(pool_.size()) +
                   " usable churn mappings");
      return false;
    }
    cycles_.assign(kConnections, 0);
    return true;
  }

  double SetUp(Tracer* tracer) override {
    const Clock::time_point start = Clock::now();
    if (!Launch(tracer != nullptr)) return -1;
    return SecondsSince(start);
  }

  void Warm() override {
    RunLoops(0, [this](size_t c, Clock::time_point, Window*) {
      Cycle(c, pool_[c % pool_.size()], nullptr, nullptr);
    });
  }

  Window Measure(double seconds, Tracer* tracer) override {
    ++measures_;
    return RunLoops(seconds, [this, tracer](size_t c, Clock::time_point end,
                                            Window* window) {
      Rotation<size_t> rotation(PoolIndices(),
                                Mix(args_.seed, 1000 + 16 * measures_ + c));
      while (Clock::now() < end && !abort_) {
        if (!Cycle(c, pool_[rotation.Next()], tracer, window)) return;
      }
    });
  }

  void TearDown(Tracer*) override { Shutdown(); }

  // Cycles as dxrecd runs them: the open parses and warms (Sigma, J); each
  // worker request builds a threads=1 Engine; certain parses its query;
  // certain and recover also get the pipeline breakdown.
  void Replay(Tracer* tracer, LayerCounts* counts) override {
    Rotation<size_t> rotation(PoolIndices(), Mix(args_.seed, 999));
    for (size_t cycle = 0; cycle < kChurnReplayCycles; ++cycle) {
      const Template& t = pool_[rotation.Next()];
      const std::string tag =
          "rp" + run_id_ + "n" + std::to_string(cycle) + "_";
      const Scenario text = Renamed(t.text, tag);
      std::optional<Parsed> session;
      {
        const uint64_t op = tracer->NextId();
        Span root(tracer, "op.open_session", op);
        std::string error;
        session = TimeOpen(text, {tracer, op, root.id()}, counts, &error);
        ++counts->ops;
        if (!session) {
          errors_->Add("replay: " + error);
          return;
        }
      }
      auto new_engine = [&](const SpanContext& at, std::optional<Engine>* out) {
        Span span(tracer, "core.engine_new", at.op, at.parent);
        out->emplace(session->sigma, ServeEngineOptions());
      };
      {
        const uint64_t op = tracer->NextId();
        Span root(tracer, "op.analyze", op);
        SymbolGrowth growth(counts);
        std::optional<Engine> engine;
        new_engine({tracer, op, root.id()}, &engine);
        Span span(tracer, "core.analyze", op, root.id());
        (void)engine->Analyze(session->target);
        ++counts->ops;
      }
      for (const std::string& query_text : text.queries) {
        const uint64_t op = tracer->NextId();
        Span root(tracer, "op.certain", op);
        const SpanContext at{tracer, op, root.id()};
        std::optional<UnionQuery> query;
        std::optional<Engine> engine;
        {
          SymbolGrowth growth(counts);
          {
            Span span(tracer, "logic.parse_query", op, root.id());
            dxrec::Result<UnionQuery> parsed =
                dxrec::ParseUnionQuery(query_text);
            if (parsed.ok()) query = std::move(*parsed);
          }
          new_engine(at, &engine);
          Span span(tracer, "core.certain", op, root.id());
          if (query) (void)engine->CertainAnswers(*query, session->target);
        }
        TimePipeline(*engine, *session, query ? &*query : nullptr, false, at,
                     counts);
        ++counts->ops;
      }
      {
        const uint64_t op = tracer->NextId();
        Span root(tracer, "op.recover", op);
        const SpanContext at{tracer, op, root.id()};
        std::optional<Engine> engine;
        {
          SymbolGrowth growth(counts);
          new_engine(at, &engine);
        }
        TimePipeline(*engine, *session, nullptr, true, at, counts);
        ++counts->ops;
      }
      Span root(tracer, "op.close_session", tracer->NextId());
      session.reset();
      ++counts->ops;
    }
  }

 private:
  struct Template {
    Scenario text;
    std::string analyze;
    std::string certain[2];
    std::string recover;
  };

  std::vector<size_t> PoolIndices() const {
    std::vector<size_t> indices(pool_.size());
    for (size_t i = 0; i < indices.size(); ++i) indices[i] = i;
    return indices;
  }

  static Scenario Renamed(const Scenario& scenario, const std::string& tag) {
    Scenario out = scenario;
    out.sigma = ReplaceAll(out.sigma, kChurnTag, tag);
    out.target = ReplaceAll(out.target, kChurnTag, tag);
    for (std::string& query : out.queries) {
      query = ReplaceAll(query, kChurnTag, tag);
    }
    return out;
  }

  // One open / analyze / certain x2 / recover / close cycle under fresh
  // names; false when the connection broke or the open failed.
  bool Cycle(size_t c, const Template& t, Tracer* tracer, Window* window) {
    const std::string n = std::to_string(cycles_[c]++);
    const std::string tag =
        "r" + run_id_ + "c" + std::to_string(c) + "n" + n + "_";
    const std::string session =
        "churn-" + run_id_ + "-c" + std::to_string(c) + "-" + n;
    const Scenario text = Renamed(t.text, tag);
    auto expect = [](const std::string& got, const std::string& want) {
      if (got == want) return std::string();
      return "gave " + got.substr(0, 120) + ", reference " +
             want.substr(0, 120);
    };

    const Outcome opened =
        Exchange(c,
                 RequestLine("open", "open_session",
                             {{"session", session},
                              {"sigma", text.sigma},
                              {"target", text.target}}),
                 "serve.open_session", "", tracer, window, NoCheck);
    if (opened != Outcome::kOk) {
      abort_ = true;
      return false;
    }
    std::vector<Outcome> outcomes;
    outcomes.push_back(
        Exchange(c, RequestLine("a", "analyze", {{"session", session}}),
                 "serve.analyze", "", tracer, window,
                 [&](const serve::JsonValue& reply) {
                   return expect(WireAnalyze(reply), t.analyze);
                 }));
    for (size_t q = 0; q < 2; ++q) {
      outcomes.push_back(Exchange(
          c,
          RequestLine("q", "certain",
                      {{"session", session}, {"query", text.queries[q]}}),
          "serve.certain", "exact", tracer, window,
          [&](const serve::JsonValue& reply) {
            return expect(WireAnswers(reply, tag), t.certain[q]);
          }));
    }
    outcomes.push_back(
        Exchange(c, RequestLine("r", "recover", {{"session", session}}),
                 "serve.recover", "exact", tracer, window,
                 [&](const serve::JsonValue& reply) {
                   return expect(WireRecoveries(reply, tag), t.recover);
                 }));
    outcomes.push_back(Exchange(
        c, RequestLine("close", "close_session", {{"session", session}}),
        "serve.close_session", "", tracer, window, NoCheck));
    return std::none_of(outcomes.begin(), outcomes.end(),
                        [](Outcome o) { return o == Outcome::kBroken; });
  }

  std::vector<Template> pool_;
  std::vector<uint64_t> cycles_;
  uint64_t measures_ = 0;
};

// --- engine-batch -------------------------------------------------------

class BatchWorkload : public Workload {
 public:
  using Workload::Workload;
  int setups() const override { return 1; }

  // At this many covers the overlap target trips the exact path, so both
  // fallback rungs run on every capped call.
  static constexpr size_t kCappedCovers = 4;

  bool Prepare() override {
    // E2: at p = 2 the recovery counts for q = 1..5 are 1/7/24/70/190
    // (q = 2 is the paper's seven-recovery example).
    const size_t e2[] = {1, 7, 24, 70, 190};
    for (size_t q = 1; q <= 5; ++q) {
      std::string error;
      std::optional<Parsed> parsed = Parse(BlowupScenario(2, q), &error);
      if (!parsed) {
        errors_->Add(error);
        return false;
      }
      Engine engine(parsed->sigma,
                    ReferenceOptions().WithMaxGHomsPerCover(1u << 16));
      dxrec::Result<InverseChaseResult> result = engine.Recover(parsed->target);
      const size_t got = result.ok() ? result->recoveries.size() : 0;
      if (got != e2[q - 1]) {
        errors_->Add("E2 blowup p=2 q=" + std::to_string(q) + ": " +
                     std::to_string(got) +
                     " recoveries, the paper's count is " +
                     std::to_string(e2[q - 1]));
        return false;
      }
    }

    scenarios_ = {BlowupScenario(2, 4), TriangleScenario(),
                  ProjectionScenario(1536, args_.seed), OverlapScenario()};
    std::vector<Parsed> parsed;
    for (const Scenario& scenario : scenarios_) {
      std::string error;
      std::optional<Parsed> one = Parse(scenario, &error);
      if (!one) {
        errors_->Add(error);
        return false;
      }
      parsed.push_back(std::move(*one));
    }
    auto fail = [this](const std::string& what, const dxrec::Status& status) {
      errors_->Add(what + ": " + status.ToString());
      return false;
    };
    for (size_t s : {size_t{0}, size_t{1}}) {
      Engine engine(parsed[s].sigma, ReferenceOptions());
      dxrec::Result<InverseChaseResult> result =
          engine.Recover(parsed[s].target);
      if (!result.ok()) return fail(scenarios_[s].name, result.status());
      ops_.push_back(
          {Kind::kRecover, s, 0, Canonical(*result), "", "engine.recover"});
    }
    {
      Engine engine(parsed[2].sigma, ReferenceOptions());
      for (size_t q = 0; q < parsed[2].queries.size(); ++q) {
        dxrec::Result<AnswerSet> answers =
            engine.CertainAnswers(parsed[2].queries[q], parsed[2].target);
        if (!answers.ok()) return fail(scenarios_[2].name, answers.status());
        const std::string& paper = scenarios_[2].paper_answers[q];
        if (!paper.empty() && Canonical(*answers) != paper) {
          errors_->Add("projection probe gave " + Canonical(*answers) +
                       ", the paper states " + paper);
          return false;
        }
        ops_.push_back({Kind::kCertain, 2, q, Canonical(*answers), "",
                        "engine.certain"});
      }
    }
    Engine capped(parsed[3].sigma, CappedOptions(1));
    for (size_t q = 0; q < parsed[3].queries.size(); ++q) {
      auto answers =
          capped.CertainAnswersDegraded(parsed[3].queries[q], parsed[3].target);
      if (!answers.ok()) return fail(scenarios_[3].name, answers.status());
      ops_.push_back({Kind::kCapped, 3, q, Canonical(answers->value),
                      answers->info.rung, "engine.certain_degraded"});
    }
    // One round of the batch, 30 calls: Blowup x18, Triangle x3, each
    // projection query once and each capped call x3. Nine calls are
    // faster than Blowup (capped ~0.15 ms, Triangle ~1.2 ms) and three
    // slower (projection ~10 ms). The median is then inside the Blowup
    // calls, a third of the way up, and the p99 is the projection calls'
    // 90th percentile: the body of a class rather than its edge or tail.
    const size_t weights[] = {18, 3, 1, 1, 1, 3, 3};
    for (size_t i = 0; i < ops_.size(); ++i) {
      for (size_t w = 0; w < weights[i]; ++w) schedule_.push_back(i);
    }
    const std::string& first = ops_[ops_.size() - 2].rung;
    const std::string& second = ops_.back().rung;
    if (first != "sound_ucq" || second != "sound_ucq+sound_cq") {
      errors_->Add("capped calls landed on " + first + " and " + second +
                   ", expected sound_ucq and sound_ucq+sound_cq");
      return false;
    }
    return true;
  }

  double SetUp(Tracer*) override { return Build(&parsed_, &engines_); }

  void Warm() override {
    for (const Op& op : ops_) RunOp(op, nullptr, nullptr);
  }

  // One caller blocking on each Engine call: a closed loop of one. An
  // untraced window pauses every kBatchSetupEvery seconds for a set-up
  // into scratch inputs; the pauses are left out of its clock.
  Window Measure(double seconds, Tracer* tracer) override {
    Window window;
    Rotation<size_t> rotation(schedule_, Mix(args_.seed, 7 + measures_++));
    double next_setup = kBatchSetupEvery;
    while (SecondsSince(window.start) < seconds) {
      RunOp(ops_[rotation.Next()], tracer, &window);
      if (tracer == nullptr && SecondsSince(window.start) >= next_setup) {
        const Clock::time_point pause = Clock::now();
        std::vector<Parsed> parsed;
        std::vector<std::unique_ptr<Engine>> engines;
        const double setup = Build(&parsed, &engines);
        if (setup >= 0) {
          window.setup_s.push_back(setup);
          window.setup_at_s.push_back(SecondsBetween(window.start, pause));
        }
        window.start += Clock::now() - pause;
        next_setup += kBatchSetupEvery;
      }
    }
    window.seconds = SecondsSince(window.start);
    return window;
  }

  void TearDown(Tracer*) override { rss_mb_ = PeakRssMb(getpid()); }

  void Replay(Tracer* tracer, LayerCounts* counts) override {
    {
      // A library user parses each input once; that cost is spread over
      // the replayed operations.
      const uint64_t op = tracer->NextId();
      Span root(tracer, "op.load", op);
      for (const Scenario& scenario : scenarios_) {
        std::string error;
        (void)TimeOpen(scenario, {tracer, op, root.id()}, counts, &error);
      }
    }
    Rotation<size_t> rotation(schedule_, Mix(args_.seed, 7));
    for (size_t i = 0; i < kBatchReplayOps; ++i) {
      const Op& op = ops_[rotation.Next()];
      const Engine& engine = *engines_[op.scenario];
      const Parsed& input = parsed_[op.scenario];
      const uint64_t id = tracer->NextId();
      Span root(tracer, op.span, id);
      const SpanContext at{tracer, id, root.id()};
      switch (op.kind) {
        case Kind::kRecover:
          TimePipeline(engine, input, nullptr, true, at, counts);
          break;
        case Kind::kCertain: {
          {
            SymbolGrowth growth(counts);
            Span span(tracer, "core.certain", id, root.id());
            (void)engine.CertainAnswers(input.queries[op.query], input.target);
          }
          TimePipeline(engine, input, &input.queries[op.query], false, at,
                       counts);
          break;
        }
        case Kind::kCapped: {
          {
            SymbolGrowth growth(counts);
            Span span(tracer, "resilience.degraded", id, root.id());
            (void)engine.CertainAnswersDegraded(input.queries[op.query],
                                                input.target);
          }
          {
            Span span(tracer, "core.sound_ucq", id, root.id());
            (void)engine.SoundUcqAnswers(input.queries[op.query], input.target);
          }
          Span span(tracer, "core.subuniversal", id, root.id());
          (void)engine.SubUniversal(input.target);
          break;
        }
      }
      ++counts->ops;
    }
    speedup_ = MeasureSpeedup();
  }

  void AddLayerMetrics(const Tracer&,
                       std::map<std::string, double>* out) override {
    (*out)["pool.speedup"] = speedup_;
    (*out)["pool.cpu_util"] = cpu_util_;
  }

 private:
  enum class Kind { kRecover, kCertain, kCapped };
  struct Op {
    Kind kind;
    size_t scenario;
    size_t query;
    std::string expected;
    std::string rung;  // the rung a capped call must land on
    const char* span;
  };

  // The library user's set-up: parse every input, construct one
  // kBatchThreads Engine per mapping and warm the columnar snapshots.
  // Returns its seconds, or -1 on a parse failure.
  double Build(std::vector<Parsed>* parsed_out,
               std::vector<std::unique_ptr<Engine>>* engines) {
    const Clock::time_point start = Clock::now();
    parsed_out->clear();
    engines->clear();
    for (size_t s = 0; s < scenarios_.size(); ++s) {
      std::string error;
      std::optional<Parsed> parsed = Parse(scenarios_[s], &error);
      if (!parsed) {
        errors_->Add(error);
        return -1;
      }
      parsed->target.WarmColumnar();
      engines->push_back(std::make_unique<Engine>(
          parsed->sigma, s == 3 ? CappedOptions(kBatchThreads)
                                : EngineOptions().WithThreads(kBatchThreads)));
      parsed_out->push_back(std::move(*parsed));
    }
    return SecondsSince(start);
  }

  static EngineOptions CappedOptions(size_t threads) {
    return EngineOptions().WithThreads(threads).WithMaxCovers(kCappedCovers);
  }

  void RunOp(const Op& op, Tracer* tracer, Window* window) {
    const Engine& engine = *engines_[op.scenario];
    const Parsed& input = parsed_[op.scenario];
    Span span(tracer, op.span, tracer != nullptr ? tracer->NextId() : 0);
    std::string got;
    std::string rung = op.rung;
    bool ok = false;
    switch (op.kind) {
      case Kind::kRecover: {
        dxrec::Result<InverseChaseResult> result = engine.Recover(input.target);
        ok = result.ok();
        if (ok) got = Canonical(*result);
        break;
      }
      case Kind::kCertain: {
        dxrec::Result<AnswerSet> result =
            engine.CertainAnswers(input.queries[op.query], input.target);
        ok = result.ok();
        if (ok) got = Canonical(*result);
        break;
      }
      case Kind::kCapped: {
        auto result = engine.CertainAnswersDegraded(input.queries[op.query],
                                                    input.target);
        ok = result.ok();
        if (ok) {
          got = Canonical(result->value);
          rung = result->info.rung;
        }
        break;
      }
    }
    const double latency = span.End();
    ok = ok && got == op.expected;
    const bool degraded = ok && rung != op.rung;
    if (window != nullptr) window->Record(latency, ok, degraded);
    if (!ok) {
      errors_->Add(std::string(op.span) + " on " +
                   scenarios_[op.scenario].name + " gave " +
                   got.substr(0, 120));
    }
    if (degraded) {
      errors_->Add(std::string(op.span) + " landed on rung " + rung +
                   ", expected " + op.rung);
    }
  }

  // Recover wall time at threads=1 over threads=kPoolThreads on the
  // batch's two Recover inputs (medians of interleaved repetitions); sets
  // cpu_util_ from the CPU time of the parallel repetitions.
  double MeasureSpeedup() {
    double serial = 0;
    double parallel = 0;
    double parallel_cpu = 0;
    double parallel_wall = 0;
    for (size_t s : {size_t{0}, size_t{1}}) {
      Engine single(parsed_[s].sigma, EngineOptions().WithThreads(1));
      Engine pooled(parsed_[s].sigma,
                    EngineOptions().WithThreads(kPoolThreads));
      std::vector<double> one;
      std::vector<double> many;
      for (int rep = 0; rep < kSpeedupReps; ++rep) {
        Clock::time_point start = Clock::now();
        (void)single.Recover(parsed_[s].target);
        one.push_back(SecondsSince(start));
        const double cpu = ProcessCpuSeconds();
        start = Clock::now();
        (void)pooled.Recover(parsed_[s].target);
        many.push_back(SecondsSince(start));
        parallel_cpu += ProcessCpuSeconds() - cpu;
        parallel_wall += many.back();
      }
      serial += Median(one);
      parallel += Median(many);
    }
    cpu_util_ = parallel_wall > 0
                    ? parallel_cpu / (parallel_wall * kPoolThreads)
                    : 0;
    return parallel > 0 ? serial / parallel : 0;
  }

  std::vector<Scenario> scenarios_;
  std::vector<Op> ops_;
  std::vector<size_t> schedule_;  // indices into ops_, one round
  std::vector<Parsed> parsed_;
  std::vector<std::unique_ptr<Engine>> engines_;
  uint64_t measures_ = 0;
  double cpu_util_ = 0;
  double speedup_ = 0;
};

// --- Driver -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double value =
        std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::unique_ptr<Workload> MakeWorkload(const Args& args, Errors* errors) {
  if (args.workload == "serve-hot") {
    return std::make_unique<HotWorkload>(args, errors);
  }
  if (args.workload == "serve-churn") {
    return std::make_unique<ChurnWorkload>(args, errors);
  }
  if (args.workload == "engine-batch") {
    return std::make_unique<BatchWorkload>(args, errors);
  }
  return nullptr;
}

int Run(const Args& args) {
  Errors errors;
  std::unique_ptr<Workload> workload = MakeWorkload(args, &errors);
  if (workload == nullptr) {
    std::fprintf(stderr, "dxrec-bench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  if (!workload->Prepare()) {
    errors.Print();
    return 1;
  }
  auto set_up = [&](Tracer* tracer) {
    const double seconds = workload->SetUp(tracer);
    if (seconds < 0) workload->TearDown(tracer);
    return seconds;
  };

  Window window;
  std::vector<Metric> metrics;
  if (!args.trace) {
    // Set-ups are spread around the window so that a slow spell of the
    // machine does not set setup_s alone.
    std::vector<double> setups;
    auto set_up_and_record = [&]() {
      const double seconds = set_up(nullptr);
      if (seconds >= 0) setups.push_back(seconds);
      return seconds >= 0;
    };
    const int before = workload->setups() / 2;
    for (int rep = 0; rep < before; ++rep) {
      if (!set_up_and_record()) {
        errors.Print();
        return 1;
      }
      workload->TearDown(nullptr);
    }
    if (!set_up_and_record()) {
      errors.Print();
      return 1;
    }
    workload->Warm();
    window = workload->Measure(args.seconds, nullptr);
    workload->TearDown(nullptr);
    const double rss_mb = workload->rss_mb();
    for (int rep = before + 1; rep < workload->setups(); ++rep) {
      if (!set_up_and_record()) {
        errors.Print();
        return 1;
      }
      workload->TearDown(nullptr);
    }
    // The rate and the median come from the fastest quarter of the
    // window. The shared host this was tuned on runs the same code up to
    // ~2x slower in spells lasting seconds; a whole-window rate or median
    // then depends on how much of the window such spells fill, while a
    // change to the program moves every slice. The p99 is over the whole
    // window: nearly every run spends more than 1% of its time in slow
    // spells, so the tail is made of them in every run, whereas the
    // fastest quarter holds too few slow calls for a steady tail.
    const FastQuarter fast = TakeFastQuarter(window);
    metrics = {
        {"ops_per_s", OkPerSecond(fast), "1/s"},
        {"latency_p50_ms", Quantile(fast.latency_ms, 0.50), "ms"},
        {"latency_p99_ms", Quantile(window.latency_ms, 0.99), "ms"},
        {"setup_s", Median(fast.setup_s.empty() ? setups : fast.setup_s),
         "s"},
        {"rss_peak_mb", rss_mb, "MiB"},
    };
  } else {
    // Half the window untraced and half traced, each on its own set-up;
    // the two rates give the tracing overhead.
    if (set_up(nullptr) < 0) {
      errors.Print();
      return 1;
    }
    workload->Warm();
    const Window plain = workload->Measure(args.seconds / 2, nullptr);
    workload->TearDown(nullptr);
    Tracer tracer;
    if (set_up(&tracer) < 0) {
      errors.Print();
      return 1;
    }
    workload->Warm();
    const Window traced = workload->Measure(args.seconds / 2, &tracer);
    workload->TearDown(&tracer);
    LayerCounts counts;
    workload->Replay(&tracer, &counts);

    window = plain;
    window.Merge(traced);
    std::map<std::string, double> values;
    for (const LayerMetric& metric : LayerMetrics()) values[metric.name] = 0;
    if (window.attempted > 0) {
      const double attempted = static_cast<double>(window.attempted);
      values["failed_frac"] = window.failed / attempted;
      values["degraded_frac"] = window.degraded / attempted;
    }
    AddReplayMetrics(tracer, counts, &values);
    workload->AddLayerMetrics(tracer, &values);
    const double plain_rate = OkPerSecond(TakeFastQuarter(plain));
    if (plain_rate > 0) {
      values["obs.trace_overhead_frac"] =
          1 - OkPerSecond(TakeFastQuarter(traced)) / plain_rate;
    }
    for (const LayerMetric& metric : LayerMetrics()) {
      metrics.push_back({metric.name, values[metric.name], metric.unit});
    }
    const std::string path = args.out_dir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    if (!tracer.Write(path)) errors.Add("cannot write " + path);
  }
  std::fprintf(stderr, "dxrec-bench: %s seed=%llu: %llu operations\n",
               args.workload.c_str(),
               static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(window.attempted));

  const bool correct = errors.count() == 0 && window.failed == 0 &&
                       window.degraded == 0 && window.attempted > 0;
  errors.Print();
  PrintResult(correct, std::max<uint64_t>(window.attempted, 1), window.failed,
              metrics);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "dxrec-bench: %s needs a value\n", arg.c_str());
      return false;
    }
    if (arg == "--workload") {
      args->workload = value;
    } else if (arg == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      args->trace = value == "1";
    } else if (arg == "--dxrecd") {
      args->dxrecd = value;
    } else if (arg == "--out-dir") {
      args->out_dir = value;
    } else {
      std::fprintf(stderr, "dxrec-bench: unknown flag '%s'\n", arg.c_str());
      return false;
    }
  }
  if (args->seconds <= 0) {
    std::fprintf(stderr, "dxrec-bench: --seconds must be positive\n");
    return false;
  }
  return true;
}

}  // namespace
}  // namespace dxbench

int main(int argc, char** argv) {
  dxbench::Args args;
  if (!dxbench::ParseArgs(argc, argv, &args)) return 2;
  return dxbench::Run(args);
}
