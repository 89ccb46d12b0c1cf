// Brute-force reference homomorphism search for the differential tests.
//
// Deliberately naive: no index, no atom ordering, no code space. Pattern
// atoms are matched in the order given against every atom of the target,
// and the admissibility rules (map_nulls, injective, nulls_to_nulls,
// fixed) are checked directly on Terms. Results are compared as sets of
// rendered substitutions, so the production matcher is free to choose
// its own enumeration order.
#ifndef DXREC_TESTS_HOM_ORACLE_H_
#define DXREC_TESTS_HOM_ORACLE_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "base/substitution.h"
#include "base/term.h"
#include "chase/homomorphism.h"
#include "relational/instance.h"
#include "relational/tuple.h"

namespace dxrec {
namespace oracle {

class BruteForceMatcher {
 public:
  BruteForceMatcher(const std::vector<Atom>& pattern, const Instance& target,
                    const HomSearchOptions& options)
      : pattern_(pattern), target_(target), options_(options) {}

  std::set<std::string> Run() {
    for (const Atom& a : pattern_) {
      for (Term t : a.args()) {
        if (IsPlaceholder(t) && options_.fixed.Binds(t)) {
          binding_[t] = options_.fixed.Apply(t);
        }
      }
    }
    Extend(0);
    return results_;
  }

 private:
  bool IsPlaceholder(Term t) const {
    return t.is_variable() || (options_.map_nulls && t.is_null());
  }

  void Extend(size_t depth) {
    if (depth == pattern_.size()) {
      Emit();
      return;
    }
    const Atom& atom = pattern_[depth];
    for (const Atom& tuple : target_.atoms()) {
      if (tuple.relation() != atom.relation() ||
          tuple.arity() != atom.arity()) {
        continue;
      }
      const std::map<Term, Term> saved = binding_;
      bool ok = true;
      for (uint32_t pos = 0; pos < atom.arity() && ok; ++pos) {
        Term p = atom.arg(pos);
        Term t = tuple.arg(pos);
        if (!IsPlaceholder(p)) {
          ok = p == t;
        } else if (binding_.count(p) > 0) {
          ok = binding_[p] == t;
        } else {
          binding_[p] = t;
        }
      }
      if (ok) Extend(depth + 1);
      binding_ = saved;
    }
  }

  // Filters a complete binding by the global admissibility rules, then
  // records it.
  void Emit() {
    std::set<Term> images;
    Substitution h;
    for (const auto& [from, to] : binding_) {
      if (options_.nulls_to_nulls && from.is_null() && !to.is_null()) return;
      if (options_.injective && !images.insert(to).second) return;
      h.Set(from, to);
    }
    results_.insert(h.ToString());
  }

  const std::vector<Atom>& pattern_;
  const Instance& target_;
  const HomSearchOptions& options_;
  std::map<Term, Term> binding_;
  std::set<std::string> results_;
};

// Every homomorphism from `pattern` into `target` honoring options'
// map_nulls / injective / nulls_to_nulls / fixed, rendered with
// Substitution::ToString. The search-control options (max_results,
// pool, context, budgets) are ignored: the oracle always runs to
// completion.
inline std::set<std::string> AllHoms(
    const std::vector<Atom>& pattern, const Instance& target,
    const HomSearchOptions& options = HomSearchOptions()) {
  return BruteForceMatcher(pattern, target, options).Run();
}

// The production matcher's results in the same rendering, as a set.
inline std::set<std::string> MatcherHoms(
    const std::vector<Atom>& pattern, const Instance& target,
    const HomSearchOptions& options = HomSearchOptions()) {
  std::set<std::string> out;
  for (const Substitution& h : FindHomomorphisms(pattern, target, options)) {
    out.insert(h.ToString());
  }
  return out;
}

}  // namespace oracle
}  // namespace dxrec

#endif  // DXREC_TESTS_HOM_ORACLE_H_
