// The chase for source-to-target tgds (paper, Sec. 2).
//
// For s-t tgds the chase is a single pass: every homomorphism (trigger)
// from a tgd body into the input fires once, head-existential variables
// receive fresh nulls, and the generated head atoms are collected. Chase_H
// restricts firing to a chosen trigger subset H (Sec. 4).
//
// Convention: Chase() returns only the *generated* atoms (over the output
// schema). The paper's examples use the same convention (source and target
// schemas are disjoint); use Instance::Union with the input where the
// model-theoretic I-union-J reading is needed.
#ifndef DXREC_CHASE_CHASE_H_
#define DXREC_CHASE_CHASE_H_

#include <string>
#include <vector>

#include "base/fresh.h"
#include "base/substitution.h"
#include "logic/dependency_set.h"
#include "relational/columnar.h"
#include "relational/instance.h"

namespace dxrec {

namespace resilience {
class ExecutionContext;
}  // namespace resilience

// A trigger: a homomorphism from body(tgd) into the instance being chased.
struct Trigger {
  TgdId tgd = 0;
  Substitution hom;  // binds body variables of the tgd

  std::string ToString(const DependencySet& sigma) const;
};

// All triggers of `sigma` on `input`. A tripped `context` (optional)
// truncates the trigger search; the result is then a sound subset.
std::vector<Trigger> FindTriggers(
    const DependencySet& sigma, const Instance& input,
    const resilience::ExecutionContext* context = nullptr);

// Semi-naive trigger detection: only triggers whose body image touches
// at least one atom of `delta` are returned. `full` is the instance
// bodies match against and must contain `delta` (typically: everything
// chased so far, with `delta` the atoms added by the last round). A
// trigger found here cannot have existed before `delta`'s atoms did, so
// a round-based driver never re-tests or re-fires old triggers — the
// classic semi-naive evaluation restriction (ROADMAP item 1). Per-atom
// pivots are deduplicated, and triggers come out in deterministic
// (tgd, pivot, delta-insertion) order.
std::vector<Trigger> FindTriggersDelta(
    const DependencySet& sigma, const Instance& full, const Instance& delta,
    const resilience::ExecutionContext* context = nullptr);

// Fires one trigger: extends the hom with fresh nulls for the tgd's
// head-existential variables and appends the instantiated head atoms to
// `out`. Returns the extended homomorphism.
Substitution FireTrigger(const DependencySet& sigma, const Trigger& trigger,
                         NullSource* nulls, Instance* out);

// Chase(Sigma, I): fires every trigger once. Generated atoms only. A
// tripped `context` yields the chase of a trigger subset (sound: every
// generated atom is a true chase atom). The trailing InstanceLayout is
// ignored; it stays only until dxrec-bench/layers.cc stops passing it.
Instance Chase(const DependencySet& sigma, const Instance& input,
               NullSource* nulls,
               const resilience::ExecutionContext* context = nullptr,
               InstanceLayout = InstanceLayout::kColumnar);

// Round-based chase to fixpoint with semi-naive trigger detection:
// round k matches bodies only against triggers touching round k-1's
// delta (FindTriggersDelta), so recursive dependency sets pay
// O(|delta|) matching per round instead of re-matching the whole
// instance (bench_e8's BM_ChaseSemiNaive A/Bs the two). Generated atoms
// only, deduplicated against the input and earlier rounds. Firing is
// oblivious, like Chase(): dependencies whose heads create fresh nulls
// every round need not terminate — bound such runs with `context`. For
// the paper's single-pass s-t setting this reduces to Chase() exactly
// (round 1 finds precisely the s-t triggers; round 2 finds none).
Instance ChaseSemiNaive(const DependencySet& sigma, const Instance& input,
                        NullSource* nulls,
                        const resilience::ExecutionContext* context = nullptr);

// Chase_H(Sigma, I): fires exactly the given triggers (a tripped
// `context` stops firing early).
Instance ChaseTriggers(const DependencySet& sigma, const Instance& input,
                       const std::vector<Trigger>& triggers,
                       NullSource* nulls,
                       const resilience::ExecutionContext* context = nullptr);

// (I, J) |= Sigma: every trigger of every tgd on I extends to a match of
// the head in J.
bool Satisfies(const DependencySet& sigma, const Instance& source,
               const Instance& target);

}  // namespace dxrec

#endif  // DXREC_CHASE_CHASE_H_
