#include "core/max_recovery.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "base/fresh.h"
#include "chase/chase.h"
#include "chase/homomorphism.h"
#include "logic/unification.h"
#include "obs/events.h"
#include "relational/instance_ops.h"
#include "resilience/execution_context.h"

namespace dxrec {

namespace {

// Explores every generation scenario for the candidate's head-atom subset
// and reports whether any scenario fails to entail the conclusion.
class ScenarioChecker {
 public:
  ScenarioChecker(const DependencySet& sigma,
                  const std::vector<Atom>& subset,
                  const std::vector<Atom>& conclusion_body,
                  obs::BudgetMeter* nodes, VariableRenamer* renamer)
      : sigma_(sigma),
        subset_(subset),
        conclusion_body_(conclusion_body),
        nodes_(nodes),
        renamer_(renamer) {}

  // Returns true if the candidate is sound (no violating scenario), false
  // if some scenario fails; ResourceExhausted on budget.
  Result<bool> Check() {
    Unifier unifier;
    std::vector<Copy> copies;
    violated_ = false;
    Status status = Assign(0, copies, unifier);
    if (!status.ok()) return status;
    return !violated_;
  }

 private:
  struct Copy {
    TgdId tgd;
    Tgd renamed;
  };

  Status Assign(size_t j, std::vector<Copy>& copies, Unifier& unifier) {
    if (violated_) return Status::Ok();
    if (!nodes_->Consume()) return nodes_->Exhausted();
    if (j == subset_.size()) {
      if (!ScenarioEntails(copies, unifier)) violated_ = true;
      return Status::Ok();
    }
    const Atom& atom = subset_[j];

    // Reuse an existing producing copy.
    for (size_t c = 0; c < copies.size(); ++c) {
      for (const Atom& b : copies[c].renamed.head()) {
        if (b.relation() != atom.relation() || b.arity() != atom.arity()) {
          continue;
        }
        Unifier branch = unifier;
        if (!branch.UnifyAtoms(atom, b)) continue;
        Status status = Assign(j + 1, copies, branch);
        if (!status.ok()) return status;
      }
    }
    // Open a new producing copy of any tgd. A scenario reads only the
    // copies on the stack, so a dropped copy's ids are free again.
    for (TgdId t = 0; t < sigma_.size(); ++t) {
      const uint32_t mark = renamer_->mark();
      Tgd renamed = sigma_.at(t).RenameApart(renamer_);
      for (const Atom& b : renamed.head()) {
        if (b.relation() != atom.relation() || b.arity() != atom.arity()) {
          continue;
        }
        Unifier branch = unifier;
        for (Term v : renamed.frontier_vars()) {
          branch.Declare(v, VarClass::kPremise);
        }
        for (Term v : renamed.body_only_vars()) {
          branch.Declare(v, VarClass::kPremise);
        }
        // Head-existential variables of a producer may take *any* value
        // in a justified solution (the witness e(z) is unconstrained --
        // unlike in a universal solution, where the chase pins a fresh
        // null). They therefore unify freely, including with the
        // candidate atoms' constants and with each other.
        for (Term v : renamed.head_existential_vars()) {
          branch.Declare(v, VarClass::kPremise);
        }
        if (!branch.UnifyAtoms(atom, b)) continue;
        copies.push_back(Copy{t, renamed});
        Status status = Assign(j + 1, copies, branch);
        copies.pop_back();
        if (!status.ok()) return status;
      }
      renamer_->Rewind(mark);
    }
    return Status::Ok();
  }

  // Does the union of the producing bodies entail the candidate's
  // conclusion (existentially closed over its non-subset variables)?
  bool ScenarioEntails(const std::vector<Copy>& copies,
                       const Unifier& unifier) {
    // Build the combined producing-body instance: resolve each variable,
    // then turn remaining variables into nulls (shared map so joins are
    // preserved).
    Substitution to_null;
    auto null_of = [&to_null](Term v) {
      if (!to_null.Binds(v)) to_null.Set(v, FreshNulls().Fresh());
      return to_null.Apply(v);
    };
    Instance bodies;
    for (const Copy& copy : copies) {
      for (const Atom& a : copy.renamed.body()) {
        std::vector<Term> args;
        for (Term t : a.args()) {
          Term r = unifier.Resolve(t);
          args.push_back(r.is_variable() ? null_of(r) : r);
        }
        bodies.Add(Atom(a.relation(), std::move(args)));
      }
    }
    // Classes of the candidate's own (subset) variables are pinned: their
    // values come from J, so the conclusion may not re-bind them -- even
    // when their representative never occurs in a producing body.
    std::unordered_set<Term, TermHash> pinned;
    for (const Atom& a : subset_) {
      for (Term t : a.args()) {
        Term r = unifier.Resolve(t);
        if (r.is_variable()) pinned.insert(r);
      }
    }
    // Conclusion pattern: pinned or body-bound classes become the shared
    // nulls; genuinely free conclusion variables stay variables, i.e. are
    // existentially quantified in the hom search.
    std::vector<Atom> pattern;
    for (const Atom& a : conclusion_body_) {
      std::vector<Term> args;
      for (Term t : a.args()) {
        Term r = unifier.Resolve(t);
        if (r.is_variable() && (to_null.Binds(r) || pinned.count(r) > 0)) {
          args.push_back(null_of(r));
        } else {
          args.push_back(r);
        }
      }
      pattern.push_back(Atom(a.relation(), std::move(args)));
    }
    return FindHomomorphism(pattern, bodies).has_value();
  }

  const DependencySet& sigma_;
  const std::vector<Atom>& subset_;
  const std::vector<Atom>& conclusion_body_;
  obs::BudgetMeter* nodes_;
  VariableRenamer* renamer_;
  bool violated_ = false;
};

}  // namespace

namespace internal {

Result<DependencySet> CqMaximumRecoveryMapping(
    const DependencySet& sigma, const MaxRecoveryOptions& options) {
  DependencySet out;
  std::set<std::string> seen;
  obs::BudgetMeter nodes("max_recovery.nodes", "max_recovery",
                         options.max_nodes, options.context);
  VariableRenamer renamer;

  for (TgdId id = 0; id < sigma.size(); ++id) {
    const Tgd& tgd = sigma.at(id);
    const std::vector<Atom>& head = tgd.head();
    size_t n = head.size();
    size_t cap = options.max_subset_size == 0
                     ? n
                     : std::min(options.max_subset_size, n);
    for (uint64_t mask = 1; mask < (1ull << n); ++mask) {
      size_t bits = static_cast<size_t>(__builtin_popcountll(mask));
      if (bits > cap) continue;
      Status checkpoint = resilience::CheckPoint(
          options.context, "max_recovery.candidate", "max_recovery");
      if (!checkpoint.ok()) return checkpoint;
      std::vector<Atom> subset;
      for (size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) subset.push_back(head[i]);
      }
      ScenarioChecker checker(sigma, subset, tgd.body(), &nodes, &renamer);
      Result<bool> sound = checker.Check();
      if (!sound.ok()) return sound.status();
      if (!*sound) continue;

      Result<Tgd> candidate = Tgd::Make(subset, tgd.body());
      if (!candidate.ok()) return candidate.status();
      // Dedup structurally identical reverse tgds (e.g. duplicate head
      // atoms across subsets).
      Substitution canon;
      int next = 0;
      std::string key;
      for (const Atom& a : candidate->body()) {
        for (Term t : a.args()) {
          if (t.is_variable() && !canon.Binds(t)) {
            canon.Set(t, Term::Variable("c" + std::to_string(next++)));
          }
        }
      }
      for (const Atom& a : candidate->head()) {
        for (Term t : a.args()) {
          if (t.is_variable() && !canon.Binds(t)) {
            canon.Set(t, Term::Variable("c" + std::to_string(next++)));
          }
        }
      }
      Tgd canonical = candidate->Apply(canon);
      for (const Atom& a : canonical.body()) key += a.ToString() + ";";
      key += "->";
      for (const Atom& a : canonical.head()) key += a.ToString() + ";";
      if (!seen.insert(key).second) continue;

      out.Add(std::move(*candidate));
    }
  }
  return out;
}

Result<Instance> MaxRecoveryChase(const DependencySet& sigma,
                                  const Instance& target,
                                  const MaxRecoveryOptions& options) {
  Result<DependencySet> mapping = CqMaximumRecoveryMapping(sigma, options);
  if (!mapping.ok()) return mapping.status();
  return Chase(*mapping, target, &FreshNulls());
}

}  // namespace internal
}  // namespace dxrec
