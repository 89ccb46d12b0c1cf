// Disjunctive tgds and their possible-worlds chase.
//
// The maximum recovery and extended recovery mappings of Arenas et al.
// [8] and Fagin et al. [16] need disjunction in rule heads: the intro's
// eq. (5) is  S(x) -> R(x) v M(x).  This module provides the minimal
// disjunctive machinery to *reproduce the paper's comparison*: a
// DisjunctiveTgd carries one body and several alternative heads, and the
// disjunctive chase materializes one instance per choice function
// (picking an alternative per trigger) -- the possible recovered worlds
// of the mapping-based approach. The paper's drawback (3) is that some
// of these worlds are unsound (not recoveries); tests and bench E12
// quantify exactly that.
#ifndef DXREC_LOGIC_DISJUNCTIVE_H_
#define DXREC_LOGIC_DISJUNCTIVE_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "base/fresh.h"
#include "base/status.h"
#include "logic/tgd.h"
#include "relational/instance.h"

namespace dxrec {

namespace resilience {
class ExecutionContext;
}  // namespace resilience

// body -> exists: head_1 v head_2 v ... v head_k (k >= 1).
class DisjunctiveTgd {
 public:
  DisjunctiveTgd() = default;

  // Alternatives must be non-empty atom sets; variables in alternatives
  // not occurring in the body are per-alternative existentials.
  static Result<DisjunctiveTgd> Make(
      std::vector<Atom> body, std::vector<std::vector<Atom>> alternatives);

  const std::vector<Atom>& body() const { return body_; }
  const std::vector<std::vector<Atom>>& alternatives() const {
    return alternatives_;
  }
  size_t num_alternatives() const { return alternatives_.size(); }

  // "B(x) -> R(x) | M(x)".
  std::string ToString() const;

 private:
  std::vector<Atom> body_;
  std::vector<std::vector<Atom>> alternatives_;
};

// A set of disjunctive tgds (variables renamed apart on insertion).
class DisjunctiveMapping {
 public:
  size_t Add(DisjunctiveTgd tgd);
  size_t size() const { return tgds_.size(); }
  bool empty() const { return tgds_.empty(); }
  const DisjunctiveTgd& at(size_t i) const { return tgds_[i]; }
  const std::vector<DisjunctiveTgd>& tgds() const { return tgds_; }
  std::string ToString() const;

 private:
  std::vector<DisjunctiveTgd> tgds_;
  std::unordered_set<Term, TermHash> used_vars_;
};

struct DisjunctiveChaseOptions {
  // Cap on materialized worlds (the count is prod_t k_t over triggers).
  size_t max_worlds = 4096;
  // Optional deadline/cancellation, checked once per trigger expansion.
  // Not owned; must outlive the call.
  const resilience::ExecutionContext* context = nullptr;
};

// The possible worlds of chasing `input` with the disjunctive mapping:
// one instance per choice of alternative per trigger, deduplicated.
// Generated atoms only (as elsewhere in the library).
Result<std::vector<Instance>> DisjunctiveChase(
    const DisjunctiveMapping& mapping, const Instance& input,
    NullSource* nulls,
    const DisjunctiveChaseOptions& options = DisjunctiveChaseOptions());

}  // namespace dxrec

#endif  // DXREC_LOGIC_DISJUNCTIVE_H_
