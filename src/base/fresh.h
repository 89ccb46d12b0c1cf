// Factories for fresh labeled nulls and fresh variables.
//
// The chase and the subsumption machinery repeatedly need values "that were
// not used before" (paper, Sec. 2). A NullSource hands out labels from a
// monotone counter; the global FreshNulls() source is shared so labels never
// collide across operations, while tests may construct local sources for
// deterministic labels.
#ifndef DXREC_BASE_FRESH_H_
#define DXREC_BASE_FRESH_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "base/term.h"

namespace dxrec {

// Hands out fresh null labels. Thread-safe.
class NullSource {
 public:
  explicit NullSource(uint32_t first_label = 0) : next_(first_label) {}

  // Returns a null with a label never before returned by this source.
  // Aborts when the 32-bit label space is exhausted: label 0xffffffff is
  // Term's invalid-id sentinel (is_valid() would read the null as "no
  // term"), and past it the counter wraps onto labels already handed out.
  Term Fresh() {
    const uint32_t label = next_.fetch_add(1);
    if (label == kExhausted) AbortExhausted();
    return Term::Null(label);
  }

  uint32_t next_label() const { return next_.load(); }

 private:
  static constexpr uint32_t kExhausted = 0xffffffffu;

  [[noreturn]] static void AbortExhausted();

  std::atomic<uint32_t> next_;
};

// The process-wide null source used by default throughout the library.
NullSource& FreshNulls();

// Hands out fresh variables named "<prefix><n>" that are guaranteed not to
// collide with other FreshVariable calls (a process-wide counter feeds n).
Term FreshVariable(const std::string& prefix = "v");

}  // namespace dxrec

#endif  // DXREC_BASE_FRESH_H_
