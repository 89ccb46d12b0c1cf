// Tractable cases (paper, Sec. 6.1).
//
//  - Thm. 6: |COV(Sigma, J)| = 1 iff every head-homomorphism covers some
//    tuple of J that no other head-homomorphism covers. Quadratic test.
//  - Lemma 1 / "quasi-guarded safe": every constraint of SUB(Sigma) is
//    built from quasi-guarded tgds only; then each covering yields exactly
//    one recovery.
//  - Thm. 5: unique cover + quasi-guarded safe ==> a *complete UCQ
//    recovery* exists and is computable in PTIME (the inverse chase is
//    deterministic).
//  - k-cover extension (Sec. 6.1, first observation): with
//    |COV(Sigma, J)| <= k the recovery set itself is UCQ-universal and of
//    size <= k.
//  - Thm. 7: the maximal J' of J with |COV(Sigma, J')| = 1, computed from
//    the uniquely covered tuples in quadratic time; the source instance
//    reverse-chased from J' gives *sound* answers to every UCQ.
#ifndef DXREC_CORE_TRACTABLE_H_
#define DXREC_CORE_TRACTABLE_H_

#include <vector>

#include "base/status.h"
#include "chase/evaluation.h"
#include "core/subsumption.h"
#include "logic/dependency_set.h"
#include "logic/query.h"
#include "relational/instance.h"

namespace dxrec {

struct TractabilityReport {
  // Every tuple of J is covered by at least one head-homomorphism
  // (necessary for any recovery to exist).
  bool all_coverable = false;
  // |COV(Sigma, J)| == 1 (Thm. 6 criterion).
  bool unique_cover = false;
  // Lemma 1's condition on SUB(Sigma).
  bool quasi_guarded_safe = false;

  // Thm. 5 applies.
  bool complete_ucq_recovery_exists() const {
    return all_coverable && unique_cover && quasi_guarded_safe;
  }
};

// Per-phase plumbing (see core/inverse_chase.h); the public entry points
// are dxrec::Engine::Analyze / CompleteUcqRecovery / SoundUcqAnswers.
namespace internal {

// Runs the Thm. 6 test and the Lemma 1 safety check.
Result<TractabilityReport> AnalyzeTractability(
    const DependencySet& sigma, const Instance& target,
    const SubsumptionOptions& options = SubsumptionOptions());

// Thm. 5: the unique complete UCQ recovery. FailedPrecondition when the
// conditions do not hold.
Result<Instance> CompleteUcqRecovery(
    const DependencySet& sigma, const Instance& target,
    const SubsumptionOptions& options = SubsumptionOptions());

}  // namespace internal

struct MaximalSubsetResult {
  // The maximal J' of J with a unique covering.
  Instance j_prime;
  // The source instance reverse-chased from J'; sound for UCQ answers
  // (Thm. 7): Q(I)| is contained in CERT(Q, Sigma, J) for every UCQ Q.
  Instance source;
};

// Thm. 7 (quadratic in |J|).
MaximalSubsetResult MaximalUniquelyCoveredSubset(const DependencySet& sigma,
                                                 const Instance& target);

// Sound UCQ answers through the Thm. 7 instance (plumbing; the public
// entry point is dxrec::Engine::SoundUcqAnswers).
namespace internal {
AnswerSet SoundUcqAnswers(const UnionQuery& query,
                          const DependencySet& sigma,
                          const Instance& target);
}  // namespace internal

}  // namespace dxrec

#endif  // DXREC_CORE_TRACTABLE_H_
