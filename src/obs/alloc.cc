#include "obs/alloc.h"

#include <algorithm>
#include <cstdlib>
#include <new>

#if __has_include(<malloc.h>)
#include <malloc.h>
#define DXREC_HAVE_MALLOC_USABLE_SIZE 1
#endif

#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace dxrec {
namespace obs {
namespace alloc {

namespace {

// POD with constant initialization: safe to touch from operator new even
// during thread start-up and tear-down.
thread_local ThreadCounters t_counters;

int64_t UsableSize(void* ptr, size_t requested) {
#ifdef DXREC_HAVE_MALLOC_USABLE_SIZE
  return static_cast<int64_t>(malloc_usable_size(ptr));
#else
  (void)ptr;
  return static_cast<int64_t>(requested);
#endif
}

}  // namespace

void SetEnabled(bool enabled) {
  internal::g_alloc_enabled.store(enabled, std::memory_order_relaxed);
}

ThreadCounters Snapshot() { return t_counters; }

void EnsureLinked() {}

namespace internal2 {

void OnAlloc(void* ptr, size_t requested) {
  const int64_t bytes = UsableSize(ptr, requested);
  ++t_counters.allocations;
  t_counters.allocated += bytes;
  t_counters.live += bytes;
  t_counters.peak_live = std::max(t_counters.peak_live, t_counters.live);
}

void OnFree(void* ptr, size_t requested) {
  const int64_t bytes = UsableSize(ptr, requested);
  t_counters.freed += bytes;
  t_counters.live -= bytes;
}

}  // namespace internal2

AllocScope::AllocScope(const char* site) : site_(site) {
  if (!Enabled()) return;
  active_ = true;
  start_allocated_ = t_counters.allocated;
  start_live_ = t_counters.live;
  // Give this scope its own high-water mark; the enclosing scope's is
  // restored (merged) on exit.
  saved_peak_ = t_counters.peak_live;
  t_counters.peak_live = t_counters.live;
}

AllocScope::~AllocScope() {
  if (!active_) return;
  const int64_t alloc_bytes = t_counters.allocated - start_allocated_;
  const int64_t peak_bytes =
      std::max<int64_t>(0, t_counters.peak_live - start_live_);
  t_counters.peak_live = std::max(saved_peak_, t_counters.peak_live);
  if (obs::Enabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetHistogram(std::string(site_) + ".alloc_bytes")
        ->Record(static_cast<uint64_t>(alloc_bytes));
    registry.GetHistogram(std::string(site_) + ".peak_bytes")
        ->Record(static_cast<uint64_t>(peak_bytes));
  }
  // Attribute to the innermost live span so heap numbers line up with
  // the flamegraph; fall back to the site label outside any span.
  const char* phase = FramesEnabled() ? CurrentFrameName() : "";
  if (phase[0] == '\0') phase = site_;
  Profiler::Global().RecordAlloc(phase, alloc_bytes, peak_bytes);
}

int64_t AllocScope::AllocatedSoFar() const {
  if (!active_) return 0;
  return t_counters.allocated - start_allocated_;
}

}  // namespace alloc
}  // namespace obs
}  // namespace dxrec

// Global operator new/delete overrides. Linked into any binary that pulls
// in this TU (obs::Apply calls EnsureLinked to guarantee that). With
// accounting disabled the overhead is one relaxed load per call.

namespace {

void* TrackedAlloc(size_t size) {
  void* ptr = std::malloc(size == 0 ? 1 : size);
  if (ptr != nullptr && dxrec::obs::alloc::Enabled()) {
    dxrec::obs::alloc::internal2::OnAlloc(ptr, size);
  }
  return ptr;
}

void* TrackedAllocAligned(size_t size, size_t alignment) {
  void* ptr = nullptr;
  if (posix_memalign(&ptr, std::max(alignment, sizeof(void*)),
                     size == 0 ? alignment : size) != 0) {
    return nullptr;
  }
  if (dxrec::obs::alloc::Enabled()) {
    dxrec::obs::alloc::internal2::OnAlloc(ptr, size);
  }
  return ptr;
}

void TrackedFree(void* ptr, size_t size) {
  if (ptr == nullptr) return;
  if (dxrec::obs::alloc::Enabled()) {
    dxrec::obs::alloc::internal2::OnFree(ptr, size);
  }
  std::free(ptr);
}

}  // namespace

void* operator new(size_t size) {
  void* ptr = TrackedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](size_t size) {
  void* ptr = TrackedAlloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}

void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return TrackedAlloc(size);
}

void* operator new(size_t size, std::align_val_t alignment) {
  void* ptr = TrackedAllocAligned(size, static_cast<size_t>(alignment));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new[](size_t size, std::align_val_t alignment) {
  void* ptr = TrackedAllocAligned(size, static_cast<size_t>(alignment));
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}

void* operator new(size_t size, std::align_val_t alignment,
                   const std::nothrow_t&) noexcept {
  return TrackedAllocAligned(size, static_cast<size_t>(alignment));
}

void* operator new[](size_t size, std::align_val_t alignment,
                     const std::nothrow_t&) noexcept {
  return TrackedAllocAligned(size, static_cast<size_t>(alignment));
}

void operator delete(void* ptr) noexcept { TrackedFree(ptr, 0); }
void operator delete[](void* ptr) noexcept { TrackedFree(ptr, 0); }
void operator delete(void* ptr, size_t size) noexcept {
  TrackedFree(ptr, size);
}
void operator delete[](void* ptr, size_t size) noexcept {
  TrackedFree(ptr, size);
}
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  TrackedFree(ptr, 0);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  TrackedFree(ptr, 0);
}
void operator delete(void* ptr, std::align_val_t) noexcept {
  TrackedFree(ptr, 0);
}
void operator delete[](void* ptr, std::align_val_t) noexcept {
  TrackedFree(ptr, 0);
}
void operator delete(void* ptr, size_t size, std::align_val_t) noexcept {
  TrackedFree(ptr, size);
}
void operator delete[](void* ptr, size_t size, std::align_val_t) noexcept {
  TrackedFree(ptr, size);
}
