// The instance-based recovery semantics (paper, Sec. 3, Defs. 1-3).
//
//   minimal solution:  (I, J) |= Sigma and no proper subset of J still
//                      satisfies Sigma with I. (Satisfaction is monotone
//                      in J, so it suffices to test single-tuple removals.)
//   justified:         (I, J) |= Sigma and J -> J' for some minimal
//                      solution J' w.r.t. Sigma and I.
//   recovery:          I is a recovery for J under Sigma iff J is
//                      justified by I; REC(Sigma, J) collects them.
//
// Every minimal solution of I equals e(Chase(Sigma, I)) for some
// substitution e on the chase's fresh nulls (pick, per trigger, the match
// that satisfies it in the minimal solution). IsJustifiedSolution
// therefore searches substitutions e with codomain dom(Chase) u dom(J)
// -- exhaustive and exponential; intended for tests, examples, and
// cross-validation of the chase-based algorithms, not for large inputs.
#ifndef DXREC_CORE_RECOVERY_H_
#define DXREC_CORE_RECOVERY_H_

#include "base/status.h"
#include "logic/dependency_set.h"
#include "relational/columnar.h"
#include "relational/instance.h"

namespace dxrec {

namespace resilience {
class ExecutionContext;
}  // namespace resilience

struct JustificationOptions {
  // Budget on candidate substitutions e explored (non-ground targets
  // only: ground targets are decided without search).
  size_t max_assignments = 200000;
  // Optional deadline/cancellation, checked at budget tick cadence. Not
  // owned; must outlive the call.
  const resilience::ExecutionContext* context = nullptr;
};

// (I, J) |= Sigma. Thin wrapper over chase::Satisfies for discoverability.
bool SatisfiesPair(const DependencySet& sigma, const Instance& source,
                   const Instance& target);

// Def. 1. The trailing InstanceLayout is ignored; it stays only until
// dxrec-bench/layers.cc stops passing it.
bool IsMinimalSolution(const DependencySet& sigma, const Instance& source,
                       const Instance& target,
                       InstanceLayout = InstanceLayout::kColumnar);

// Def. 2. ResourceExhausted if the substitution search exceeds budget.
Result<bool> IsJustifiedSolution(
    const DependencySet& sigma, const Instance& source,
    const Instance& target,
    const JustificationOptions& options = JustificationOptions());

// Def. 3: I in REC(Sigma, J). Same as IsJustifiedSolution.
Result<bool> IsRecovery(
    const DependencySet& sigma, const Instance& source,
    const Instance& target,
    const JustificationOptions& options = JustificationOptions());

// J is a universal solution for the given source: (I, J) |= Sigma and
// J -> Chase(Sigma, I).
bool IsUniversalSolutionFor(const DependencySet& sigma,
                            const Instance& source, const Instance& target);

// J is the canonical solution for the given source: J is (isomorphic to)
// Chase(Sigma, I).
bool IsCanonicalSolutionFor(const DependencySet& sigma,
                            const Instance& source, const Instance& target);

}  // namespace dxrec

#endif  // DXREC_CORE_RECOVERY_H_
