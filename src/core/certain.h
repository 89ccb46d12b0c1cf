// CERT(Q, Sigma, J): certain answers over the recoveries (paper, Sec. 3).
//
// By Thm. 2, Chase^{-1}(Sigma, J) is UCQ-universal, so
//   CERT(Q, Sigma, J) = intersection of Q(I)| over I in Chase^{-1}.
// The computation is coNP-complete already for CQs (Thm. 4 / Cor. 1);
// budgets apply via InverseChaseOptions.
#ifndef DXREC_CORE_CERTAIN_H_
#define DXREC_CORE_CERTAIN_H_

#include "base/status.h"
#include "chase/evaluation.h"
#include "core/inverse_chase.h"
#include "logic/query.h"

namespace dxrec {
// Per-phase plumbing (see core/inverse_chase.h); the public entry point
// is dxrec::Engine::CertainAnswers.
namespace internal {

// Certain answers of a source UCQ. FailedPrecondition if J is not valid
// for recovery under Sigma (CERT is undefined: REC is empty).
Result<AnswerSet> CertainAnswers(
    const UnionQuery& query, const DependencySet& sigma,
    const Instance& target,
    const InverseChaseOptions& options = InverseChaseOptions());

// Certain answers from an already computed Chase^{-1}(Sigma, J), e.g. a
// session-resident set (core/engine.h, RecoveryCache): the intersection
// of Q over `inverse.recoveries`. FailedPrecondition when the set is
// empty, as above.
Result<AnswerSet> CertainAnswersFrom(const UnionQuery& query,
                                     const InverseChaseResult& inverse);

// Convenience overload for a single CQ.
Result<AnswerSet> CertainAnswers(
    const ConjunctiveQuery& query, const DependencySet& sigma,
    const Instance& target,
    const InverseChaseOptions& options = InverseChaseOptions());

// Q-certainty decision problem (Thm. 4): is `tuple` certain?
Result<bool> IsCertain(
    const AnswerTuple& tuple, const UnionQuery& query,
    const DependencySet& sigma, const Instance& target,
    const InverseChaseOptions& options = InverseChaseOptions());

}  // namespace internal
}  // namespace dxrec

#endif  // DXREC_CORE_CERTAIN_H_
