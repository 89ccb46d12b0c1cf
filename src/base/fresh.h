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

// Hands out fresh variables named "$<prefix><n>" (a process-wide counter
// feeds n) and interns them. Only DependencySet::Add and
// DisjunctiveMapping::Add use it, to rename a variable colliding with an
// earlier tgd's: the new name becomes part of the set.
Term FreshVariable(const std::string& prefix = "v");

// Renames variables apart without touching the symbol table: the n-th
// variable handed out has id Term::kFirstRenamedVariableId + n and prints
// as "$r<n>". Each computation that renames tgd copies apart (SUB(Sigma),
// the maximum and extended recovery mappings) owns one, so n counts only
// that computation's copies. Not thread-safe.
class VariableRenamer {
 public:
  // A variable distinct from every interned one and from every variable
  // this renamer handed out and has not rewound past.
  Term Fresh() {
    if (next_ == kExhausted) AbortExhausted();
    return Term::FromIds(TermKind::kVariable,
                         Term::kFirstRenamedVariableId + next_++);
  }

  // Everything handed out after `mark()` may be handed out again after
  // `Rewind(mark)`: a backtracking search rewinds once it has dropped
  // every copy renamed since the mark.
  uint32_t mark() const { return next_; }
  void Rewind(uint32_t mark) { next_ = mark; }

 private:
  // Id 0xffffffff is Term's invalid-id sentinel.
  static constexpr uint32_t kExhausted =
      0xffffffffu - Term::kFirstRenamedVariableId;

  [[noreturn]] static void AbortExhausted();

  uint32_t next_ = 0;
};

}  // namespace dxrec

#endif  // DXREC_BASE_FRESH_H_
