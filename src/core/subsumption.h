// Subsumption constraints SUB(Sigma) (paper, Defs. 6-8).
//
// A minimal subsumant {xi_1, ..., xi_n} of xi_0 with mappings theta_i
// witnesses that any source instance triggering xi_1..xi_n (with the
// identifications the theta_i describe) necessarily also triggers xi_0, so
// a covering H that realizes the premises must also contain a matching
// head-homomorphism for xi_0 -- otherwise no recovery can use H.
//
// Representation: each constraint stores, per premise, the subsumed tgd's
// id and the theta-images of its *head* variables (the positions a
// premise head-homomorphism pins), and for the conclusion the images of
// its *frontier* variables. Images are either constants or shared
// "constraint variables". An image variable that appears in some premise
// is *pinned* by a premise match; unpinned images correspond to the
// body-only ("frozen") variables of Def. 6, whose values the extension m'
// of Def. 8 chooses existentially. Constraint variables are uninterned
// renamed variables (base/fresh.h) and mean something only within their
// own constraint: two constraints may reuse the same ids.
//
// Generation works over renamed-apart copies of tgds (Example 8's
// constraint needs two copies of the same tgd), at most one copy per body
// atom of xi_0, unified with the frozen-class discipline of
// logic/unification.h. Every generated constraint is *sound* (it reflects
// a genuine trigger implication), so tautology filtering and dedup are
// performance matters only; Def. 9's final back-homomorphism step keeps
// the produced recoveries correct regardless.
#ifndef DXREC_CORE_SUBSUMPTION_H_
#define DXREC_CORE_SUBSUMPTION_H_

#include <memory>
#include <string>
#include <vector>

#include "base/status.h"
#include "base/term.h"
#include "core/hom_set.h"
#include "logic/dependency_set.h"
#include "util/store_once.h"

namespace dxrec {

namespace resilience {
class ExecutionContext;
}  // namespace resilience

// One premise theta_i: the tgd and the images of its head variables, in
// tgd.head_vars() order.
struct SubPremise {
  TgdId tgd = 0;
  std::vector<Term> head_images;
};

// theta_1, ..., theta_n -> theta_0.
struct SubsumptionConstraint {
  std::vector<SubPremise> premises;
  TgdId conclusion = 0;
  // Images of the conclusion tgd's frontier variables, in
  // tgd.frontier_vars() order. Head-existential variables are
  // unconstrained (Def. 8's m' extension covers them).
  std::vector<Term> conclusion_images;

  std::string ToString(const DependencySet& sigma) const;
};

// SUB(Sigma) for one Sigma, computed by the first consumer that completes
// it and read by every later one (step 3 of the inverse chase, the
// Lemma 1 check of core/tractable and the Sec. 6.2 cover filter of
// core/cq_subuniversal). SUB depends on Sigma alone, so a
// CompiledMapping (core/compiled_mapping.h) owns one. Only a completed
// computation is stored: a budget, deadline or fault trip depends on the
// call and surfaces as usual.
using SubsumptionCache = util::StoreOnce<std::vector<SubsumptionConstraint>>;
using SubsumptionSet =
    std::shared_ptr<const std::vector<SubsumptionConstraint>>;

struct SubsumptionOptions {
  // Cap on premises per constraint; 0 means "body atom count of the
  // subsumed tgd" (the natural bound: each premise must contribute).
  size_t max_premises = 0;
  // Search budgets.
  size_t max_constraints = 4096;
  size_t max_nodes = 1u << 22;
  // Optional deadline/cancellation, checked at budget tick cadence. Not
  // owned; must outlive the call.
  const resilience::ExecutionContext* context = nullptr;
  // Optional store of Sigma's SUB, read and filled by LoadSubsumption.
  // Only uncapped computations (max_premises == 0) use it. Not owned.
  SubsumptionCache* cache = nullptr;
};

// SUB(Sigma): all derivable non-tautological constraints, deduplicated.
// Computes afresh; `options.cache` is not consulted.
Result<std::vector<SubsumptionConstraint>> ComputeSubsumption(
    const DependencySet& sigma,
    const SubsumptionOptions& options = SubsumptionOptions());

// SUB(Sigma) through `options.cache`: the stored set when there is one,
// else computed, and stored when the computation completed.
Result<SubsumptionSet> LoadSubsumption(const DependencySet& sigma,
                                       const SubsumptionOptions& options);

// H |= constraint (Def. 8): for every way of matching the premises with
// homs from H, some hom in H matches the conclusion (pinned positions
// fixed, unpinned positions chosen existentially and consistently).
bool Models(const std::vector<HeadHom>& homs,
            const SubsumptionConstraint& constraint,
            const DependencySet& sigma);

// H |= SUB for every constraint. On failure, `failing_constraint` (when
// non-null) receives the index of the first violated constraint.
bool ModelsAll(const std::vector<HeadHom>& homs,
               const std::vector<SubsumptionConstraint>& constraints,
               const DependencySet& sigma,
               size_t* failing_constraint = nullptr);

}  // namespace dxrec

#endif  // DXREC_CORE_SUBSUMPTION_H_
