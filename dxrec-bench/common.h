// Shared pieces of dxrec-bench: clocks, sample statistics, canonical
// output forms for checking, and the in-memory span recorder of the
// traced run.
#ifndef DXREC_BENCH_COMMON_H_
#define DXREC_BENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dxrec::serve {}

namespace dxbench {

namespace serve = dxrec::serve;
using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point t) {
  return SecondsBetween(t, Clock::now());
}

// A well-mixed 64-bit hash of (a, b), for deriving per-stream seeds.
uint64_t Mix(uint64_t a, uint64_t b);

// Nearest-rank quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

std::string ReplaceAll(std::string text, std::string_view from,
                       std::string_view to);

// Canonical forms of engine outputs. Answer tuples and recoveries are
// sorted, and null labels (`_N<id>`) are erased, so a daemon reply and an
// in-process reference compare as plain strings whatever the process,
// thread count or null numbering.
std::string CanonicalAnswers(std::vector<std::string> tuples);
std::string CanonicalRecoveries(const std::vector<std::string>& recoveries);

// Peak resident set (VmHWM) of a process, in MiB; 0 if unreadable.
double PeakRssMb(int pid);

// CPU time (user + system) this process has used, in seconds.
double ProcessCpuSeconds();

// One timed call into a layer: name, interval, causing span and the id of
// the workload operation it belongs to.
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;
  const char* name = "";
  Clock::time_point start;
  Clock::time_point end;
};

// Spans stay in memory until Write(); recording is thread-safe.
class Tracer {
 public:
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Record(const SpanRecord& span);

  // Summed duration (seconds) and the durations of the spans called `name`.
  double TotalSeconds(const std::string& name) const;
  std::vector<double> Durations(const std::string& name) const;

  // JSON array of spans with start/end in microseconds from the first
  // span and self time (duration minus the spans it caused).
  bool Write(const std::string& path) const;

 private:
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// Times one call; records it into `tracer` when that is non-null.
class Span {
 public:
  Span(Tracer* tracer, const char* name, uint64_t op, uint64_t parent = 0)
      : tracer_(tracer), start_(Clock::now()) {
    record_.name = name;
    record_.op = op;
    record_.parent = parent;
    if (tracer_ != nullptr) record_.id = tracer_->NextId();
  }
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  uint64_t id() const { return record_.id; }
  // Ends the span (idempotent) and returns its duration in seconds.
  double End() {
    if (!ended_) {
      ended_ = true;
      record_.start = start_;
      record_.end = Clock::now();
      if (tracer_ != nullptr) tracer_->Record(record_);
    }
    return SecondsBetween(record_.start, record_.end);
  }

 private:
  Tracer* tracer_;
  Clock::time_point start_;
  SpanRecord record_;
  bool ended_ = false;
};

}  // namespace dxbench

#endif  // DXREC_BENCH_COMMON_H_
