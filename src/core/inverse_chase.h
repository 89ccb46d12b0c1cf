// Chase^{-1}(Sigma, J): the paper's inverse chase (Def. 9, Thms. 1-2).
//
// Pipeline, per the definition:
//   1. HOM(Sigma, J)        -- head-homomorphisms (core/hom_set),
//   2. COV(Sigma, J)        -- coverings of J (core/cover),
//   3. keep H |= SUB(Sigma) -- subsumption filter (core/subsumption),
//   4. I_H = Chase_H(Sigma^{-1}, J)  -- reverse chase with only H's
//      triggers; body-only variables become fresh nulls,
//   5. J_H = Chase(Sigma, I_H)       -- forward chase,
//   6. all homomorphisms g : J_H -> J identity on dom(J),
//   7. emit g(I_H) for every such g.
// The union over coverings is a UCQ-universal recovery (Thm. 2): it is
// homomorphically equivalent to REC(Sigma, J), so intersecting query
// answers over it yields CERT(Q, Sigma, J) for every source UCQ Q.
//
// Enumerating COV uses *all* covers, not only minimal ones: minimal covers
// can fail SUB(Sigma) while supersets pass (Example 7's H_4), so a
// minimal-only enumeration would drop recoveries and overstate certain
// answers. A minimal-only approximation remains available via options.
//
// Everything here is exponential by necessity (Thms. 3-4); budgets turn
// runaway inputs into ResourceExhausted errors.
#ifndef DXREC_CORE_INVERSE_CHASE_H_
#define DXREC_CORE_INVERSE_CHASE_H_

#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/cover.h"
#include "core/hom_set.h"
#include "core/subsumption.h"
#include "logic/dependency_set.h"
#include "relational/instance.h"

namespace dxrec {

namespace util {
class ThreadPool;
}  // namespace util

struct InverseChaseOptions {
  CoverOptions cover;
  // Step 3's budgets; `subsumption.cache`, when set, is the SUB(Sigma)
  // store step 3 reads and fills (dxrec::Engine passes its mapping's).
  SubsumptionOptions subsumption;
  // Skip coverings violating SUB(Sigma) before the (more expensive)
  // forward-chase check. Purely an optimization: step 6's g-homomorphism
  // requirement makes the output sound either way.
  bool use_subsumption_filter = true;
  // Approximation: enumerate only minimal covers. Faster, but the result
  // may not be UCQ-universal (certain answers become upper bounds).
  bool minimal_covers_only = false;
  // Budgets.
  size_t max_recoveries = 1u << 20;
  size_t max_g_homs_per_cover = 1u << 14;
  // Step 7's justification search for a candidate over a target with
  // nulls (JustificationOptions::max_assignments, core/recovery.h). A
  // candidate whose search runs out is counted unverified and dropped;
  // like a capped g-hom enumeration, that fails an exact run with the
  // search's ResourceExhausted ("justification.assignments").
  size_t max_justification_assignments = 200000;
  // Cross-cover cap on g-homomorphism search work (candidate tuples
  // tried, drawn from one shared atomic pool in 2^16 batches). 0 =
  // unlimited. Unlike the per-cover caps above, which cover runs dry is
  // scheduling-dependent under num_threads > 1 — like a deadline trip,
  // not like max_g_homs_per_cover (docs/PARALLELISM.md).
  uint64_t max_cover_work = 0;
  // Collapse isomorphic recoveries (safe for certain answers).
  bool dedup_isomorphic = true;
  // Replace each recovery by its core (chase/instance_core.h) before
  // dedup: smaller, canonical instances with identical certain answers.
  // For a ground target the core of a recovery is itself a recovery
  // (trigger frontiers are constants, so folding nulls preserves
  // justification); for targets with nulls the emitted cores are merely
  // hom-equivalent representatives.
  bool core_recoveries = false;
  // Record provenance: which covering, back-homomorphism and reverse
  // trigger produced each recovered atom. Fills
  // InverseChaseResult::explanations (parallel to `recoveries`).
  bool explain = false;
  // Worker threads for the per-covering pipeline (steps 4-7). 0 =
  // hardware concurrency, 1 = sequential. Results are merged in
  // covering order, so the output is identical to the sequential run up
  // to fresh-null labels.
  size_t num_threads = 1;
  // Pool to run on. Null with num_threads > 1 spins up a transient pool
  // for this call; dxrec::Engine passes its own long-lived pool here.
  // Not owned.
  util::ThreadPool* pool = nullptr;
  // Minimum root-candidate count before a single g-homomorphism search
  // fans out over the pool (HomSearchOptions::parallel_min_candidates).
  size_t parallel_min_candidates = 1024;
  // Optional deadline/cancellation (resilience/execution_context.h),
  // threaded into every budgeted sub-search and checked at the pipeline's
  // phase and per-cover boundaries. Not owned; must outlive the call.
  const resilience::ExecutionContext* context = nullptr;
};

// Provenance of one recovered source atom.
struct SourceAtomProvenance {
  Atom atom;          // the atom as it appears in the recovery
  TgdId tgd = 0;      // tgd whose reversed form generated it
  // The target tuples this atom helps justify (J_h of the generating
  // head-homomorphism).
  Instance supports;
};

// Provenance of one emitted recovery.
struct RecoveryExplanation {
  // The covering H in Chase_H(Sigma^{-1}, J).
  std::vector<HeadHom> cover;
  // The back-homomorphism g of Def. 9.
  Substitution g;
  // Per-atom provenance. Atoms generated by several triggers appear once
  // per generating trigger.
  std::vector<SourceAtomProvenance> atoms;

  std::string ToString(const DependencySet& sigma) const;
};

struct InverseChaseStats {
  size_t num_homs = 0;
  size_t num_covers = 0;
  size_t num_covers_passing_sub = 0;
  size_t num_covers_yielding_recoveries = 0;
  size_t num_g_homs = 0;
  // Covers whose g-homomorphism enumeration stopped early (per-cover cap
  // or the shared work budget): their candidate sets are lower bounds,
  // so exact mode fails rather than silently under-report.
  size_t num_covers_truncated = 0;
  size_t num_recoveries_before_dedup = 0;
  // Candidates g(I_H) that failed the final recovery verification (the
  // g-collapse introduced triggers that J cannot satisfy / J not minimal).
  size_t num_candidates_rejected = 0;
  // Non-ground targets whose justification search ran out of budget; such
  // candidates are dropped conservatively.
  size_t num_candidates_unverified = 0;

  // Per-phase wall time, mirroring the pipeline's obs spans (the stable
  // summary view over the trace; see docs/OBSERVABILITY.md). Per-cover
  // phases (reverse/forward chase, g-hom search, verification) are summed
  // across covers, so with num_threads > 1 their total can exceed
  // `seconds_total`. Counters above are deterministic across thread
  // counts; these timings naturally are not.
  double seconds_hom_enum = 0;
  double seconds_cover_enum = 0;
  double seconds_subsumption = 0;
  double seconds_reverse_chase = 0;
  double seconds_forward_chase = 0;
  double seconds_g_hom_search = 0;
  double seconds_verify = 0;
  double seconds_merge = 0;
  double seconds_total = 0;

  // One-line human-readable summary (counters, then phase times in ms).
  std::string ToString() const;
};

struct InverseChaseResult {
  // The finite representative set Chase^{-1}(Sigma, J). Empty iff J is not
  // valid for recovery under Sigma.
  std::vector<Instance> recoveries;
  // Parallel to `recoveries` when options.explain is set; empty otherwise.
  std::vector<RecoveryExplanation> explanations;
  InverseChaseStats stats;

  bool valid_for_recovery() const { return !recoveries.empty(); }
};

// Per-phase plumbing functions. dxrec::Engine is the public API; these
// remain available under dxrec::internal for code that drives one phase
// directly with hand-built per-phase options (the engine itself, unit
// tests, benches). The pre-engine deprecated public aliases were removed
// after their migration window (see docs/ALGORITHMS.md history).
namespace internal {

Result<InverseChaseResult> InverseChase(
    const DependencySet& sigma, const Instance& target,
    const InverseChaseOptions& options = InverseChaseOptions());

// Partial-result variant backing the degradation ladder: always returns
// the result accumulated so far. On a clean run `*interrupt` is Ok and
// the result equals InverseChase's. On a budget / deadline / cancellation
// trip `*interrupt` carries the structured error and the result holds
// every recovery verified before the trip — each individually a genuine
// recovery (verification is per-candidate), but the set may be incomplete,
// so certain-answer intersection over it is an UPPER bound, and
// `valid_for_recovery()` only means "no witness found in the explored
// part" when false. `interrupt` must be non-null.
InverseChaseResult InverseChasePartial(const DependencySet& sigma,
                                       const Instance& target,
                                       const InverseChaseOptions& options,
                                       Status* interrupt);

// J-validity (Thm. 3): is J valid for recovery under Sigma? Decided by
// running the inverse chase and checking non-emptiness.
Result<bool> IsValidForRecovery(
    const DependencySet& sigma, const Instance& target,
    const InverseChaseOptions& options = InverseChaseOptions());

// Prop. 1's decision problems: is J a universal (resp. canonical)
// solution for *some* source instance? Decided exactly by scanning
// Chase^{-1}(Sigma, J): if J is universal/canonical for any I, the
// candidate C emitted from I's realized covering has triggers(C) =
// triggers(I) (every I-atom in a trigger participates in a realized
// head-homomorphism), so Chase(Sigma, C) is isomorphic to
// Chase(Sigma, I) and C witnesses the property.
Result<bool> IsUniversalSolutionForSomeSource(
    const DependencySet& sigma, const Instance& target,
    const InverseChaseOptions& options = InverseChaseOptions());
Result<bool> IsCanonicalSolutionForSomeSource(
    const DependencySet& sigma, const Instance& target,
    const InverseChaseOptions& options = InverseChaseOptions());

// Whether every candidate g(I_H) of every cover is a recovery, so step 7
// need not verify any: Sigma is full and join-free (no body atom repeats a
// variable or holds a constant, and no two body atoms of a tgd share a
// variable). docs/ALGORITHMS.md §1 gives the argument.
bool CoversDecideRecoveries(const DependencySet& sigma);

// Step 6's g : J_H -> J, identity on dom(J), without a search when J_H
// holds no null outside dom(J): g then fixes every term of J_H, so it
// exists iff J_H ⊆ J. Returns the list the search would (none, or one
// substitution binding J_H's nulls to themselves in first-occurrence
// order), or nullopt when J_H has a fresh null and the search must run.
std::optional<std::vector<Substitution>> ForcedGHomomorphisms(
    const Instance& chased, const Instance& target);

}  // namespace internal
}  // namespace dxrec

#endif  // DXREC_CORE_INVERSE_CHASE_H_
