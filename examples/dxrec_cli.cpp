// Interactive shell over the recovery engine. Reads commands from stdin
// (or a script piped in), one per line:
//
//   sigma <tgd>; <tgd>; ...     set the s-t mapping
//   target <instance>           set the target instance J
//   validate                    is J valid for recovery?
//   analyze                     tractability report (Thms. 5-7)
//   recover                     materialize Chase^{-1}(Sigma, J)
//   cert <ucq>                  certain answers over the recoveries
//   sound <ucq>                 sound UCQ answers (Thm. 7 path)
//   soundcq <cq>                sound CQ answers via I_{Sigma,J}
//   subuniversal                print I_{Sigma,J}
//   mapping                     print the CQ-maximum recovery mapping
//   baseline                    chase J with that mapping
//   explain                     recoveries with per-atom provenance
//   explain analyze [timing]    access-path stats operator tree (adds
//                               wall-time/alloc columns with 'timing')
//   repair                      maximal valid subsets of an invalid J
//   greedyrepair                single fast valid subset
//   loadsigma <path>            load the mapping from a file
//   loadtarget <path>           load the target from a file
//   savetarget <path>           save the target to a file
//   set <key> <value>           tune budgets/threads (see 'help')
//   help | quit
//
// Command-line flags (observability, see docs/OBSERVABILITY.md):
//   --trace[=<file>]         record phase spans; write Chrome trace-event
//                            JSON on exit (default dxrec_trace.json)
//   --metrics-json[=<file>]  write the metrics/span run report on exit
//                            (default dxrec_metrics.json)
//   --events[=<file>]        record decision events; write JSONL on exit
//                            (default dxrec_events.jsonl)
//   --progress[=<secs>]      heartbeat + stall watchdog on stderr
//                            (default every 1s)
//   --profile[=<file>]       sampling profiler; write folded stacks on
//                            exit (default dxrec_profile.folded)
//   --openmetrics[=<file>]   write an OpenMetrics exposition on exit
//                            (default dxrec_metrics.om)
//   --snapshot-interval=<s>  periodic JSONL metric snapshots + window
//                            rotation (dxrec_snapshots.jsonl)
//
// Resilience flags (see docs/ROBUSTNESS.md):
//   --deadline=<secs>        wall-clock deadline per command
//   --degrade=on|off         fall back to sound under-approximations on
//                            budget/deadline trips (default on)
//
// Example session:
//   sigma R(x, y) -> S(x), P(y)
//   target {S(a), P(b1), P(b2)}
//   recover
//   cert Q(x) :- R(x, 'b2')
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "core/engine.h"
#include "logic/io.h"
#include "logic/parser.h"
#include "logic/printer.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/profiler.h"
#include "obs/stats.h"
#include "obs/progress.h"
#include "obs/report.h"
#include "relational/instance_ops.h"

namespace {

using namespace dxrec;  // NOLINT: example brevity

// SIGINT/SIGTERM: remember the signal and cancel the in-flight engine
// command. Cancel() is one lock-free atomic store, so it is safe in
// signal context; with degradation on, the interrupted command still
// prints its sound partial answer before the shell unwinds. The handler
// is installed without SA_RESTART so a blocked getline on stdin fails
// with EINTR instead of resuming, which ends the shell loop and runs
// the regular exporter-flush exit path.
volatile std::sig_atomic_t g_shutdown_signal = 0;
resilience::CancelToken* g_shutdown_cancel = nullptr;

void OnShutdownSignal(int signo) {
  g_shutdown_signal = signo;
  if (g_shutdown_cancel != nullptr) g_shutdown_cancel->Cancel();
}

void InstallShutdownHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // deliberately not SA_RESTART
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

void PrintHelp() {
  std::printf(
      "commands: sigma <tgds> | target <instance> | validate | analyze |\n"
      "          recover | explain | explain analyze [timing] |\n"
      "          cert <ucq> | sound <ucq> |\n"
      "          soundcq <cq> | subuniversal | mapping | baseline |\n"
      "          repair | greedyrepair | loadsigma <path> |\n"
      "          loadtarget <path> | savetarget <path> |\n"
      "          set <key> <value> | help | quit\n"
      "set keys: cover_nodes cover_covers max_recoveries threads\n"
      "          deadline_ms degrade profile snapshot_interval stats\n"
      "flags:    --trace[=<file>]        Chrome trace-event JSON on exit\n"
      "                                  (default dxrec_trace.json)\n"
      "          --metrics-json[=<file>] metrics/span run report on exit\n"
      "                                  (default dxrec_metrics.json)\n"
      "          --events[=<file>]       decision-event JSONL on exit\n"
      "                                  (default dxrec_events.jsonl)\n"
      "          --progress[=<secs>]     stderr heartbeat + stall watchdog\n"
      "                                  (default every 1s)\n"
      "          --profile[=<file>]      sampling profiler; folded stacks\n"
      "                                  on exit (default "
      "dxrec_profile.folded)\n"
      "          --openmetrics[=<file>]  OpenMetrics exposition on exit\n"
      "                                  (default dxrec_metrics.om)\n"
      "          --snapshot-interval=<s> periodic JSONL metric snapshots\n"
      "                                  (dxrec_snapshots.jsonl)\n"
      "          --deadline=<secs>       wall-clock deadline per command\n"
      "          --degrade=on|off        degrade to sound answers on trips\n"
      "                                  (default on)\n"
      "          --threads=<n>           worker threads per engine\n"
      "                                  (1 = sequential, 0 = hardware)\n");
}

class Shell {
 public:
  Shell() = default;
  explicit Shell(EngineOptions options) : options_(std::move(options)) {}

  void Run() {
    std::string line;
    std::printf("dxrec shell -- 'help' for commands\n");
    while (g_shutdown_signal == 0 && std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
      if (g_shutdown_signal != 0) break;
    }
    if (g_shutdown_signal != 0) {
      std::printf("interrupted (signal %d); flushing and exiting\n",
                  static_cast<int>(g_shutdown_signal));
    }
  }

 private:
  bool Dispatch(const std::string& line) {
    size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos || line[start] == '#') return true;
    size_t space = line.find(' ', start);
    std::string cmd = line.substr(start, space - start);
    std::string rest =
        space == std::string::npos ? "" : line.substr(space + 1);

    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      PrintHelp();
    } else if (cmd == "loadsigma") {
      Result<DependencySet> sigma = LoadTgdSetFile(rest);
      if (!sigma.ok()) {
        Report(sigma.status());
        return true;
      }
      engine_ =
          std::make_unique<Engine>(std::move(*sigma), options_);
      std::printf("mapping loaded (%zu tgds)\n", engine_->sigma().size());
    } else if (cmd == "loadtarget") {
      Result<Instance> target = LoadInstanceFile(rest);
      if (!target.ok()) {
        Report(target.status());
        return true;
      }
      target_ = std::move(*target);
      std::printf("target loaded (%zu tuples)\n", target_.size());
    } else if (cmd == "savetarget") {
      Status status = SaveInstanceFile(rest, target_);
      std::printf("%s\n", status.ok() ? "saved" : status.ToString().c_str());
    } else if (cmd == "sigma") {
      Result<DependencySet> sigma = ParseTgdSet(rest);
      if (!sigma.ok()) {
        Report(sigma.status());
        return true;
      }
      engine_ =
          std::make_unique<Engine>(std::move(*sigma), options_);
      std::printf("mapping set (%zu tgds)\n", engine_->sigma().size());
    } else if (cmd == "set") {
      Set(rest);
    } else if (cmd == "target") {
      Result<Instance> target = ParseInstance(rest);
      if (!target.ok()) {
        Report(target.status());
        return true;
      }
      target_ = std::move(*target);
      std::printf("target set (%zu tuples)\n", target_.size());
    } else if (!engine_) {
      std::printf("set a mapping first ('sigma ...')\n");
    } else if (cmd == "validate") {
      Result<bool> valid = engine_->IsValid(target_);
      if (valid.ok()) {
        std::printf("%s\n", *valid ? "valid for recovery"
                                   : "NOT valid for recovery");
      } else {
        Report(valid.status());
      }
    } else if (cmd == "analyze") {
      Result<TractabilityReport> report = engine_->Analyze(target_);
      if (!report.ok()) {
        Report(report.status());
        return true;
      }
      std::printf("all tuples coverable: %s\nunique cover: %s\n"
                  "quasi-guarded safe: %s\ncomplete UCQ recovery: %s\n",
                  report->all_coverable ? "yes" : "no",
                  report->unique_cover ? "yes" : "no",
                  report->quasi_guarded_safe ? "yes" : "no",
                  report->complete_ucq_recovery_exists() ? "yes" : "no");
    } else if (cmd == "recover") {
      Result<resilience::Degraded<InverseChaseResult>> result =
          engine_->RecoverDegraded(target_);
      if (!result.ok()) {
        Report(result.status());
        return true;
      }
      if (!result->exact()) {
        std::printf("degraded: %s\n", result->info.ToString().c_str());
      }
      std::printf("%zu recoveries [%s]\n%s",
                  result->value.recoveries.size(),
                  result->value.stats.ToString().c_str(),
                  ToString(result->value.recoveries).c_str());
    } else if (cmd == "cert") {
      Result<UnionQuery> q = ParseUnionQuery(rest);
      if (!q.ok()) {
        Report(q.status());
        return true;
      }
      Result<resilience::Degraded<AnswerSet>> cert =
          engine_->CertainAnswersDegraded(*q, target_);
      if (cert.ok()) {
        if (!(*cert).exact()) {
          std::printf("degraded: %s\n", cert->info.ToString().c_str());
        }
        std::printf("%s\n", ToString(cert->value).c_str());
      } else {
        Report(cert.status());
      }
    } else if (cmd == "sound") {
      Result<UnionQuery> q = ParseUnionQuery(rest);
      if (!q.ok()) {
        Report(q.status());
        return true;
      }
      std::printf("%s\n",
                  ToString(engine_->SoundUcqAnswers(*q, target_)).c_str());
    } else if (cmd == "soundcq") {
      Result<ConjunctiveQuery> q = ParseQuery(rest);
      if (!q.ok()) {
        Report(q.status());
        return true;
      }
      Result<AnswerSet> answers = engine_->SoundCqAnswers(*q, target_);
      if (answers.ok()) {
        std::printf("%s\n", ToString(*answers).c_str());
      } else {
        Report(answers.status());
      }
    } else if (cmd == "subuniversal") {
      Result<SubUniversalResult> sub = engine_->SubUniversal(target_);
      if (sub.ok()) {
        std::printf("%s\n", CanonicalString(sub->instance).c_str());
      } else {
        Report(sub.status());
      }
    } else if (cmd == "explain" && rest.rfind("analyze", 0) == 0) {
      // EXPLAIN ANALYZE for steps 1-7: rerun the pipeline with
      // access-path statistics on and render the operator tree. The
      // default output is byte-identical at any thread count; 'timing'
      // adds wall-time/alloc columns (not byte-stable, like Postgres's
      // EXPLAIN (ANALYZE, TIMING ON)).
      const bool timing = rest.find("timing") != std::string::npos;
      options_.obs.stats = true;
      options_.obs.enabled = true;
      obs::Apply(options_.obs);
      Engine analyzer(DependencySet(engine_->sigma()), options_);
      Result<InverseChaseResult> result = analyzer.Recover(target_);
      if (!result.ok()) {
        Report(result.status());
        return true;
      }
      obs::stats::RunStats run;
      if (!obs::stats::LastRun(&run)) {
        std::printf("no stats recorded for the run\n");
        return true;
      }
      std::printf("sigma:\n");
      for (TgdId id = 0; id < analyzer.sigma().size(); ++id) {
        std::printf("  tgd %zu: %s\n", static_cast<size_t>(id),
                    analyzer.sigma().at(id).ToString().c_str());
      }
      std::printf("\n%s",
                  obs::stats::RenderExplainAnalyze(run, timing).c_str());
    } else if (cmd == "explain") {
      EngineOptions explain_options = options_;
      explain_options.algorithms.explain = true;
      Engine explainer(DependencySet(engine_->sigma()),
                               explain_options);
      Result<InverseChaseResult> result = explainer.Recover(target_);
      if (!result.ok()) {
        Report(result.status());
        return true;
      }
      for (size_t i = 0; i < result->recoveries.size(); ++i) {
        std::printf("I%zu = %s\n%s\n", i,
                    CanonicalString(result->recoveries[i]).c_str(),
                    result->explanations[i]
                        .ToString(explainer.sigma())
                        .c_str());
      }
    } else if (cmd == "repair") {
      Result<RepairResult> result = engine_->Repair(target_);
      if (!result.ok()) {
        Report(result.status());
        return true;
      }
      if (!result->uncoverable.empty()) {
        std::printf("unrecoverable tuples dropped: %s\n",
                    result->uncoverable.ToString().c_str());
      }
      for (size_t i = 0; i < result->maximal_valid_subsets.size(); ++i) {
        std::printf("repair %zu: %s\n", i,
                    result->maximal_valid_subsets[i].ToString().c_str());
      }
    } else if (cmd == "greedyrepair") {
      Result<Instance> repaired = engine_->RepairGreedy(target_);
      if (repaired.ok()) {
        std::printf("%s\n", repaired->ToString().c_str());
      } else {
        Report(repaired.status());
      }
    } else if (cmd == "mapping") {
      Result<DependencySet> mapping = engine_->MaximumRecoveryMapping();
      if (mapping.ok()) {
        std::printf("%s", mapping->ToString().c_str());
      } else {
        Report(mapping.status());
      }
    } else if (cmd == "baseline") {
      Result<Instance> baseline =
          engine_->BaselineRecoveredSource(target_);
      if (baseline.ok()) {
        std::printf("%s\n", CanonicalString(*baseline).c_str());
      } else {
        Report(baseline.status());
      }
    } else {
      std::printf("unknown command '%s'; try 'help'\n", cmd.c_str());
    }
    return true;
  }

  // `set <key> <value>`: budget/parallelism knobs, applied to the current
  // engine (if any) and every engine built afterwards.
  void Set(const std::string& rest) {
    size_t space = rest.find(' ');
    if (space == std::string::npos) {
      std::printf("usage: set <key> <value>\n");
      return;
    }
    std::string key = rest.substr(0, space);
    std::string raw = rest.substr(space + 1);
    unsigned long long value =
        std::strtoull(rest.c_str() + space + 1, nullptr, 10);
    if (key == "cover_nodes") {
      options_.budgets.max_cover_nodes = value;
    } else if (key == "cover_covers") {
      options_.budgets.max_covers = value;
    } else if (key == "max_recoveries") {
      options_.budgets.max_recoveries = value;
    } else if (key == "threads") {
      options_.parallel.threads = value;
    } else if (key == "deadline_ms") {
      options_.resilience.deadline_seconds =
          static_cast<double>(value) / 1000.0;
    } else if (key == "degrade") {
      options_.resilience.degrade = (raw == "on" || raw == "1");
    } else if (key == "profile") {
      // Starts the sampling profiler; never stops a running one (the
      // obs collectors' never-turns-off contract).
      options_.obs.profile = (raw == "on" || raw == "1");
      options_.obs.enabled = options_.obs.enabled || options_.obs.profile;
      obs::Apply(options_.obs);
    } else if (key == "stats") {
      // Turns access-path statistics on (same never-turns-off contract
      // as the other collectors); `explain analyze` does this implicitly.
      options_.obs.stats = (raw == "on" || raw == "1");
      options_.obs.enabled = options_.obs.enabled || options_.obs.stats;
      obs::Apply(options_.obs);
    } else if (key == "snapshot_interval") {
      options_.obs.snapshot_interval_seconds =
          std::strtod(raw.c_str(), nullptr);
      options_.obs.enabled = true;
      obs::Apply(options_.obs);
    } else {
      std::printf("unknown key '%s' (try 'help')\n", key.c_str());
      return;
    }
    if (engine_) {
      engine_ = std::make_unique<Engine>(
          DependencySet(engine_->sigma()), options_);
    }
    std::printf("%s = %llu\n", key.c_str(), value);
  }

  void Report(const Status& status) {
    std::printf("error: %s\n", status.ToString().c_str());
  }

  std::unique_ptr<Engine> engine_;
  EngineOptions options_;
  Instance target_;
};

// `--flag` or `--flag=<value>`; returns false if `arg` is a different
// flag, true (with `*value` set to the payload or `fallback`) otherwise.
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

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::string events_path;
  std::string progress_secs;
  std::string profile_path;
  std::string openmetrics_path;
  std::string snapshot_secs;
  std::string deadline_secs;
  std::string degrade;
  std::string threads;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (MatchFlag(arg, "--trace", "dxrec_trace.json", &trace_path) ||
        MatchFlag(arg, "--metrics-json", "dxrec_metrics.json",
                  &metrics_path) ||
        MatchFlag(arg, "--events", "dxrec_events.jsonl", &events_path) ||
        MatchFlag(arg, "--progress", "1", &progress_secs) ||
        MatchFlag(arg, "--profile", "dxrec_profile.folded", &profile_path) ||
        MatchFlag(arg, "--openmetrics", "dxrec_metrics.om",
                  &openmetrics_path) ||
        MatchFlag(arg, "--snapshot-interval", "1", &snapshot_secs) ||
        MatchFlag(arg, "--deadline", "0", &deadline_secs) ||
        MatchFlag(arg, "--degrade", "on", &degrade) ||
        MatchFlag(arg, "--threads", "0", &threads)) {
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      PrintHelp();
      return 0;
    }
    std::fprintf(stderr, "unknown flag '%s' (try --help)\n", arg.c_str());
    return 1;
  }
  obs::ObsOptions obs_options;
  obs_options.enabled = !trace_path.empty() || !metrics_path.empty() ||
                        !events_path.empty() || !progress_secs.empty() ||
                        !openmetrics_path.empty();
  obs_options.profile = !profile_path.empty();
  if (!snapshot_secs.empty()) {
    obs_options.snapshot_interval_seconds =
        std::strtod(snapshot_secs.c_str(), nullptr);
    if (obs_options.snapshot_interval_seconds <= 0) {
      obs_options.snapshot_interval_seconds = 1.0;
    }
    obs_options.enabled = true;
    // Registered before the snapshotter starts so its very first tick
    // reaches the file.
    obs::ExporterRegistry::Global().Add(
        std::make_shared<obs::JsonlSnapshotExporter>("dxrec_snapshots.jsonl"));
  }
  obs::Apply(obs_options);
  if (!events_path.empty()) obs::SetEventsEnabled(true);
  if (!progress_secs.empty()) {
    obs::ProgressOptions progress;
    progress.interval_seconds = std::strtod(progress_secs.c_str(), nullptr);
    if (progress.interval_seconds <= 0) progress.interval_seconds = 1.0;
    obs::ProgressMonitor::Global().Start(progress);
  }

  EngineOptions options;
  options.obs = obs_options;
  // Every engine command carries the shutdown cancel token, so a SIGINT
  // mid-recover trips "resilience.cancelled" and (with degrade on)
  // returns the sound partial answer instead of hanging until done.
  auto shutdown_cancel = std::make_shared<resilience::CancelToken>();
  options.resilience.cancel = shutdown_cancel;
  g_shutdown_cancel = shutdown_cancel.get();
  InstallShutdownHandlers();
  if (!deadline_secs.empty()) {
    options.resilience.deadline_seconds =
        std::strtod(deadline_secs.c_str(), nullptr);
  }
  if (!degrade.empty()) {
    options.resilience.degrade = (degrade == "on" || degrade == "1");
  }
  if (!threads.empty()) {
    options.parallel.threads = std::strtoull(threads.c_str(), nullptr, 10);
  }
  const auto session_started = std::chrono::steady_clock::now();
  {
    // Root span so the profiler has a frame covering the whole session:
    // per-phase self times then sum to the session's wall time.
    std::optional<obs::Span> session;
    if (!profile_path.empty()) session.emplace("session");
    Shell(std::move(options)).Run();
    obs::Profiler::Global().Stop();  // final flush while `session` is live
  }
  const int64_t session_wall_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - session_started)
          .count();

  obs::ProgressMonitor::Global().Stop();
  obs::Snapshotter::Global().Stop();
  int exit_code = 0;
  if (!events_path.empty()) {
    Status status = obs::WriteEventsJsonl(events_path);
    if (status.ok()) {
      std::printf("events written to %s (%llu recorded, %llu dropped)\n",
                  events_path.c_str(),
                  static_cast<unsigned long long>(
                      obs::EventSink::Global().recorded()),
                  static_cast<unsigned long long>(
                      obs::EventSink::Global().dropped()));
    } else {
      std::fprintf(stderr, "events: %s\n", status.ToString().c_str());
      exit_code = 1;
    }
  }
  if (!trace_path.empty()) {
    Status status = obs::WriteChromeTrace(trace_path);
    if (status.ok()) {
      std::printf("trace written to %s (%zu spans)\n", trace_path.c_str(),
                  obs::Tracer::Global().size());
    } else {
      std::fprintf(stderr, "trace: %s\n", status.ToString().c_str());
      exit_code = 1;
    }
  }
  if (!metrics_path.empty()) {
    Status status = obs::WriteRunReport(metrics_path);
    if (status.ok()) {
      std::printf("metrics written to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "metrics: %s\n", status.ToString().c_str());
      exit_code = 1;
    }
  }
  if (!profile_path.empty()) {
    Status status =
        obs::WriteTextFile(profile_path, obs::Profiler::Global().FoldedStacks());
    if (status.ok()) {
      std::printf("profile written to %s (%lld us sampled / %lld us wall)\n",
                  profile_path.c_str(),
                  static_cast<long long>(
                      obs::Profiler::Global().TotalSampledUs()),
                  static_cast<long long>(session_wall_us));
    } else {
      std::fprintf(stderr, "profile: %s\n", status.ToString().c_str());
      exit_code = 1;
    }
  }
  if (!openmetrics_path.empty()) {
    obs::UpdateDerivedGauges();
    obs::MetricsSnapshot cumulative = obs::MetricsRegistry::Global().Read();
    obs::MetricsSnapshot window;
    double window_seconds = 0;
    const bool have_window = obs::MetricsWindow::Global().Window(
        60.0, &window, &window_seconds);
    Status status = obs::WriteOpenMetrics(openmetrics_path, cumulative,
                                          have_window ? &window : nullptr,
                                          window_seconds);
    if (status.ok()) {
      std::printf("openmetrics written to %s\n", openmetrics_path.c_str());
    } else {
      std::fprintf(stderr, "openmetrics: %s\n", status.ToString().c_str());
      exit_code = 1;
    }
  }
  if (g_shutdown_signal != 0) {
    // Exporters are flushed and collector threads stopped; report the
    // interruption in the exit status the way shells expect.
    g_shutdown_cancel = nullptr;
    return 128 + static_cast<int>(g_shutdown_signal);
  }
  return exit_code;
}
