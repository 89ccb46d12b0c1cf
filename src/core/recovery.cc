#include "core/recovery.h"

#include <functional>
#include <unordered_set>

#include "base/fresh.h"
#include "chase/chase.h"
#include "chase/homomorphism.h"
#include "obs/events.h"

namespace dxrec {

bool SatisfiesPair(const DependencySet& sigma, const Instance& source,
                   const Instance& target) {
  return Satisfies(sigma, source, target);
}

bool IsMinimalSolution(const DependencySet& sigma, const Instance& source,
                       const Instance& target, InstanceLayout) {
  // J is minimal iff removing any single tuple breaks satisfaction
  // (satisfaction is monotone in the target). Equivalently: a tuple t is
  // non-removable iff some trigger's head matches *all* contain t, so J
  // is minimal iff every tuple lies in the match-intersection of some
  // trigger. Computing those intersections directly (with early exit
  // once an intersection empties) avoids |J| full re-checks.
  std::unordered_set<Atom, AtomHash> needed;
  for (TgdId id = 0; id < sigma.size(); ++id) {
    const Tgd& tgd = sigma.at(id);
    bool all_triggers_satisfied = true;
    ForEachHomomorphism(
        tgd.body(), source, HomSearchOptions(),
        [&](const Substitution& h) {
          HomSearchOptions head_options;
          head_options.fixed = h;
          bool first = true;
          std::unordered_set<Atom, AtomHash> common;
          ForEachHomomorphism(
              tgd.head(), target, head_options,
              [&](const Substitution& match) {
                std::unordered_set<Atom, AtomHash> atoms;
                for (const Atom& a : tgd.head()) {
                  atoms.insert(a.Apply(match));
                }
                if (first) {
                  common = std::move(atoms);
                  first = false;
                } else {
                  std::unordered_set<Atom, AtomHash> kept;
                  for (const Atom& a : common) {
                    if (atoms.count(a) > 0) kept.insert(a);
                  }
                  common = std::move(kept);
                }
                // Stop enumerating matches once nothing is forced.
                return !common.empty();
              });
          if (first) {
            // No head match at all: (I, J) violates Sigma.
            all_triggers_satisfied = false;
            return false;
          }
          for (const Atom& a : common) needed.insert(a);
          return true;
        });
    if (!all_triggers_satisfied) return false;
  }
  for (const Atom& tuple : target.atoms()) {
    if (needed.count(tuple) == 0) return false;  // removable
  }
  return true;
}

namespace {

// Enumerates substitutions e on `nulls` with images in `codomain`,
// invoking `visit` per complete assignment. Returns false if the budget
// ran out.
bool EnumerateSubstitutions(
    const std::vector<Term>& nulls, const std::vector<Term>& codomain,
    obs::BudgetMeter* budget, Substitution* current,
    const std::function<bool(const Substitution&)>& visit, size_t depth) {
  if (!budget->Consume()) return false;
  if (depth == nulls.size()) {
    return visit(*current);
  }
  for (Term value : codomain) {
    current->Set(nulls[depth], value);
    if (!EnumerateSubstitutions(nulls, codomain, budget, current, visit,
                                depth + 1)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Result<bool> IsJustifiedSolution(const DependencySet& sigma,
                                 const Instance& source,
                                 const Instance& target,
                                 const JustificationOptions& options) {
  if (!Satisfies(sigma, source, target)) return false;
  // Fast path: if J is itself a minimal solution, it witnesses Def. 2 via
  // the identity homomorphism.
  if (IsMinimalSolution(sigma, source, target)) return true;
  // For a ground J the converse also holds: any minimal M with J -> M has
  // J as a subset, and a tuple removable from J stays removable in every
  // superset, so M >= J minimal forces J minimal. No search needed.
  if (target.IsGround()) return false;
  Instance chase = Chase(sigma, source, &FreshNulls());

  // Fresh chase nulls: nulls of the chase result not already in dom(I).
  std::unordered_set<Term, TermHash> source_terms;
  for (Term t : source.Dom()) source_terms.insert(t);
  std::vector<Term> fresh;
  for (Term t : chase.TermsOfKind(TermKind::kNull)) {
    if (source_terms.count(t) == 0) fresh.push_back(t);
  }

  // Codomain: dom(chase) u dom(J); mapping a null "to itself" covers the
  // choice of an arbitrary fresh value (any value outside the codomain is
  // isomorphic to keeping the null).
  std::vector<Term> codomain = chase.Dom();
  {
    std::unordered_set<Term, TermHash> seen(codomain.begin(),
                                            codomain.end());
    for (Term t : target.Dom()) {
      if (seen.insert(t).second) codomain.push_back(t);
    }
  }

  bool found = false;
  obs::BudgetMeter budget("justification.assignments", "verify",
                          options.max_assignments, options.context);
  Substitution current;
  bool finished = EnumerateSubstitutions(
      fresh, codomain, &budget, &current,
      [&](const Substitution& e) {
        Instance candidate = chase.Apply(e);
        // Every minimal solution equals e(Chase) for some e; check that
        // this candidate is minimal and that J maps into it.
        if (IsMinimalSolution(sigma, source, candidate) &&
            HasInstanceHomomorphism(target, candidate)) {
          found = true;
          return false;  // stop
        }
        return true;
      },
      0);
  if (found) return true;
  if (!finished) return budget.Exhausted();
  return false;
}

Result<bool> IsRecovery(const DependencySet& sigma, const Instance& source,
                        const Instance& target,
                        const JustificationOptions& options) {
  // Note the empty source is only a recovery of the empty target: a
  // non-empty J has no minimal solution w.r.t. an empty I that J could map
  // into, so Def. 2's second condition already excludes it.
  return IsJustifiedSolution(sigma, source, target, options);
}

bool IsUniversalSolutionFor(const DependencySet& sigma,
                            const Instance& source,
                            const Instance& target) {
  if (!Satisfies(sigma, source, target)) return false;
  Instance chase = Chase(sigma, source, &FreshNulls());
  return HasInstanceHomomorphism(target, chase);
}

bool IsCanonicalSolutionFor(const DependencySet& sigma,
                            const Instance& source,
                            const Instance& target) {
  Instance chase = Chase(sigma, source, &FreshNulls());
  return AreIsomorphic(target, chase);
}

}  // namespace dxrec
