// Per-phase heap accounting via a global operator new/delete override.
//
// When enabled (the profiler turns it on), every allocation updates
// plain thread-local counters: blocks allocated, bytes allocated, bytes
// freed, live bytes, and the high-water mark of live bytes. Sizes come from
// malloc_usable_size so frees are accounted exactly without per-block
// headers. When disabled the override costs one relaxed atomic load per
// call.
//
// `AllocScope` brackets a phase on one thread: its destructor records
// the bytes allocated inside the scope and the peak of live bytes above
// the entry level into `<site>.alloc_bytes` / `<site>.peak_bytes`
// histograms and into the profiler's per-phase table (attributed to the
// innermost live span, aligning heap numbers with the flamegraph).
// Scopes nest: an inner scope's peak contributes to the outer one's.
#ifndef DXREC_OBS_ALLOC_H_
#define DXREC_OBS_ALLOC_H_

#include <atomic>
#include <cstdint>

namespace dxrec {
namespace obs {
namespace alloc {

namespace internal {
inline std::atomic<bool> g_alloc_enabled{false};
}  // namespace internal

inline bool Enabled() {
  return internal::g_alloc_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);

// This thread's counters since tracking was enabled. Monotone except
// `live`/`peak_live`, which move with frees and AllocScope resets.
struct ThreadCounters {
  int64_t allocations = 0;  // total blocks ever allocated
  int64_t allocated = 0;    // total bytes ever allocated
  int64_t freed = 0;        // total bytes ever freed
  int64_t live = 0;         // allocated - freed
  int64_t peak_live = 0;    // high-water mark of live
};
ThreadCounters Snapshot();

// Forces the accounting TU (and its operator new override) to be linked
// into binaries that use the static library. Called from obs::Apply.
void EnsureLinked();

// RAII phase bracket. `site` must be a static-storage string; it names
// the histograms (`<site>.alloc_bytes`, `<site>.peak_bytes`).
class AllocScope {
 public:
  explicit AllocScope(const char* site);
  ~AllocScope();

  AllocScope(const AllocScope&) = delete;
  AllocScope& operator=(const AllocScope&) = delete;

  // Bytes allocated so far inside this scope (for tests).
  int64_t AllocatedSoFar() const;

 private:
  const char* site_;
  bool active_ = false;
  int64_t start_allocated_ = 0;
  int64_t start_live_ = 0;
  int64_t saved_peak_ = 0;  // enclosing scope's peak, restored on exit
};

}  // namespace alloc
}  // namespace obs
}  // namespace dxrec

#endif  // DXREC_OBS_ALLOC_H_
