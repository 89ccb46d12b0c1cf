#include "core/extended_recovery.h"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "base/fresh.h"
#include "chase/homomorphism.h"
#include "logic/unification.h"
#include "obs/events.h"

namespace dxrec {

namespace {

// Enumerates producer scenarios for a head-atom subset and collects one
// head alternative per scenario (same search shape as
// core/max_recovery's ScenarioChecker).
class AlternativeCollector {
 public:
  AlternativeCollector(const DependencySet& sigma,
                       const std::vector<Atom>& subset,
                       const ExtendedRecoveryOptions& options,
                       obs::BudgetMeter* nodes, VariableRenamer* renamer)
      : sigma_(sigma),
        subset_(subset),
        options_(options),
        nodes_(nodes),
        renamer_(renamer) {}

  Result<std::vector<std::vector<Atom>>> Collect() {
    Unifier unifier;
    std::vector<Copy> copies;
    Status status = Assign(0, copies, unifier);
    if (!status.ok()) return status;
    return std::move(alternatives_);
  }

 private:
  struct Copy {
    Tgd renamed;
  };

  Status Assign(size_t j, std::vector<Copy>& copies, Unifier& unifier) {
    if (!nodes_->Consume()) return nodes_->Exhausted();
    if (j == subset_.size()) {
      Emit(copies, unifier);
      if (alternatives_.size() > options_.max_alternatives) {
        return obs::BudgetExhausted(
            {"extended_recovery.alternatives", options_.max_alternatives,
             alternatives_.size(), "extended_recovery"});
      }
      return Status::Ok();
    }
    const Atom& atom = subset_[j];
    for (const Copy& copy : copies) {
      for (const Atom& head : copy.renamed.head()) {
        if (head.relation() != atom.relation() ||
            head.arity() != atom.arity()) {
          continue;
        }
        Unifier branch = unifier;
        if (!branch.UnifyAtoms(atom, head)) continue;
        Status status = Assign(j + 1, copies, branch);
        if (!status.ok()) return status;
      }
    }
    for (const Tgd& producer : sigma_.tgds()) {
      Tgd renamed = producer.RenameApart(renamer_);
      for (const Atom& head : renamed.head()) {
        if (head.relation() != atom.relation() ||
            head.arity() != atom.arity()) {
          continue;
        }
        Unifier branch = unifier;
        // Head existentials may take any value in a justified solution
        // (see core/max_recovery.cc).
        for (Term v : renamed.all_vars()) {
          branch.Declare(v, VarClass::kPremise);
        }
        if (!branch.UnifyAtoms(atom, head)) continue;
        copies.push_back(Copy{renamed});
        Status status = Assign(j + 1, copies, branch);
        copies.pop_back();
        if (!status.ok()) return status;
      }
    }
    return Status::Ok();
  }

  void Emit(const std::vector<Copy>& copies, const Unifier& unifier) {
    if (copies.empty()) return;
    // The rule body keeps the subset's own variables; a scenario that
    // merges two of them (or binds one to a constant) carries an
    // equality condition a disjunctive tgd cannot express -- skip it.
    std::unordered_map<Term, Term, TermHash> back;  // rep -> subset var
    for (const Atom& a : subset_) {
      for (Term t : a.args()) {
        if (!t.is_variable()) continue;
        Term rep = unifier.Resolve(t);
        if (!rep.is_variable()) return;  // pinned to a constant
        auto [it, inserted] = back.emplace(rep, t);
        if (!inserted && it->second != t) return;  // two vars merged
      }
    }
    std::vector<Atom> alternative;
    for (const Copy& copy : copies) {
      for (const Atom& a : copy.renamed.body()) {
        std::vector<Term> args;
        for (Term t : a.args()) {
          Term rep = unifier.Resolve(t);
          auto it = rep.is_variable() ? back.find(rep) : back.end();
          args.push_back(it != back.end() ? it->second : rep);
        }
        Atom resolved(a.relation(), std::move(args));
        bool duplicate = false;
        for (const Atom& existing : alternative) {
          if (existing == resolved) duplicate = true;
        }
        if (!duplicate) alternative.push_back(std::move(resolved));
      }
    }
    alternatives_.push_back(std::move(alternative));
  }

  const DependencySet& sigma_;
  const std::vector<Atom>& subset_;
  const ExtendedRecoveryOptions& options_;
  obs::BudgetMeter* nodes_;
  VariableRenamer* renamer_;
  std::vector<std::vector<Atom>> alternatives_;
};

// Freezes an alternative: subset variables to shared constants, other
// variables to distinct constants, numbered from 0 per call (the frozen
// instance lives for one dominance test, so names repeat across calls).
Instance FreezeAlternative(const std::vector<Atom>& alternative,
                           const Substitution& pin_subset_vars) {
  Substitution freezing = pin_subset_vars;
  Instance out;
  int next = 0;
  for (const Atom& a : alternative) {
    for (Term t : a.args()) {
      if (t.is_variable() && !freezing.Binds(t)) {
        freezing.Set(t, Term::Constant("@er" + std::to_string(next++)));
      }
    }
  }
  for (const Atom& a : alternative) out.Add(a.Apply(freezing));
  return out;
}

// alternative `weak` is implied by `general` if `general` maps into the
// frozen `weak` with the subset variables pinned consistently.
bool Implies(const std::vector<Atom>& general,
             const std::vector<Atom>& weak,
             const Substitution& pin_subset_vars) {
  Instance frozen = FreezeAlternative(weak, pin_subset_vars);
  HomSearchOptions options;
  options.fixed = pin_subset_vars;
  return FindHomomorphism(general, frozen, options).has_value();
}

std::string AlternativeKey(const std::vector<Atom>& alternative,
                           const Substitution& pin_subset_vars) {
  // Canonical rendering with existential variables renamed by first
  // occurrence; subset variables rendered via their pinned constants.
  Substitution canon = pin_subset_vars;
  int next = 0;
  std::string key;
  std::vector<Atom> sorted = alternative;
  std::sort(sorted.begin(), sorted.end());
  for (const Atom& a : sorted) {
    key += RelationName(a.relation()) + "(";
    for (Term t : a.args()) {
      if (t.is_variable() && !canon.Binds(t)) {
        canon.Set(t, Term::Variable("e" + std::to_string(next++)));
      }
      key += canon.Apply(t).ToString() + ",";
    }
    key += ");";
  }
  return key;
}

}  // namespace

Result<DisjunctiveMapping> ExtendedRecoveryMapping(
    const DependencySet& sigma, const ExtendedRecoveryOptions& options) {
  DisjunctiveMapping out;
  std::set<std::string> seen_rules;
  obs::BudgetMeter nodes("extended_recovery.nodes", "extended_recovery",
                         options.max_nodes);
  // Never rewound: the alternatives keep their copies' variables, and
  // distinct rules must not share one (DisjunctiveMapping::Add would
  // rename it apart by interning).
  VariableRenamer renamer;

  for (TgdId id = 0; id < sigma.size(); ++id) {
    const Tgd& tgd = sigma.at(id);
    size_t n = tgd.head().size();
    size_t cap =
        options.max_subset_size == 0 ? n : std::min(options.max_subset_size, n);
    for (uint64_t mask = 1; mask < (1ull << n); ++mask) {
      if (static_cast<size_t>(__builtin_popcountll(mask)) > cap) continue;
      std::vector<Atom> subset;
      for (size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) subset.push_back(tgd.head()[i]);
      }
      AlternativeCollector collector(sigma, subset, options, &nodes,
                                     &renamer);
      Result<std::vector<std::vector<Atom>>> alternatives =
          collector.Collect();
      if (!alternatives.ok()) return alternatives.status();
      if (alternatives->empty()) continue;

      // Pin the subset's variables to shared frozen constants for the
      // dedup and dominance tests.
      Substitution pin;
      int next = 0;
      for (const Atom& a : subset) {
        for (Term t : a.args()) {
          if (t.is_variable() && !pin.Binds(t)) {
            pin.Set(t, Term::Constant("@pin" + std::to_string(next++)));
          }
        }
      }
      // Exact dedup.
      std::vector<std::vector<Atom>> unique;
      std::set<std::string> seen;
      for (std::vector<Atom>& alt : *alternatives) {
        if (seen.insert(AlternativeKey(alt, pin)).second) {
          unique.push_back(std::move(alt));
        }
      }
      // Dominance filter: drop alternatives implied by a more general
      // one (ties keep the earlier).
      std::vector<std::vector<Atom>> kept;
      for (size_t i = 0; i < unique.size(); ++i) {
        bool dominated = false;
        for (size_t j = 0; j < unique.size() && !dominated; ++j) {
          if (i == j) continue;
          if (!Implies(unique[j], unique[i], pin)) continue;
          if (!Implies(unique[i], unique[j], pin) || j < i) {
            dominated = true;
          }
        }
        if (!dominated) kept.push_back(unique[i]);
      }
      Result<DisjunctiveTgd> rule =
          DisjunctiveTgd::Make(subset, std::move(kept));
      if (!rule.ok()) return rule.status();

      // Rule-level dedup up to variable renaming (distinct tgds can
      // induce the same rule, e.g. both R->S and M->S produce
      // "S(x) -> R(x) v M(x)").
      Substitution canon;
      int cn = 0;
      auto canon_term = [&](Term t) {
        if (t.is_variable() && !canon.Binds(t)) {
          canon.Set(t, Term::Variable("rk" + std::to_string(cn++)));
        }
        return canon.Apply(t);
      };
      std::string rule_key;
      for (const Atom& a : rule->body()) {
        rule_key += RelationName(a.relation()) + "(";
        for (Term t : a.args()) rule_key += canon_term(t).ToString() + ",";
        rule_key += ");";
      }
      rule_key += "->";
      std::vector<std::string> alt_keys;
      for (const std::vector<Atom>& alt : rule->alternatives()) {
        Substitution alt_canon = canon;
        int an = cn;
        std::string k;
        for (const Atom& a : alt) {
          k += RelationName(a.relation()) + "(";
          for (Term t : a.args()) {
            if (t.is_variable() && !alt_canon.Binds(t)) {
              alt_canon.Set(t,
                            Term::Variable("rk" + std::to_string(an++)));
            }
            k += alt_canon.Apply(t).ToString() + ",";
          }
          k += ");";
        }
        alt_keys.push_back(std::move(k));
      }
      std::sort(alt_keys.begin(), alt_keys.end());
      for (const std::string& k : alt_keys) rule_key += k + "|";
      if (!seen_rules.insert(rule_key).second) continue;
      out.Add(std::move(*rule));
    }
  }
  return out;
}

Result<std::vector<Instance>> ExtendedRecoveryWorlds(
    const DependencySet& sigma, const Instance& target,
    const ExtendedRecoveryOptions& options,
    const DisjunctiveChaseOptions& chase_options) {
  Result<DisjunctiveMapping> mapping =
      ExtendedRecoveryMapping(sigma, options);
  if (!mapping.ok()) return mapping.status();
  return DisjunctiveChase(*mapping, target, &FreshNulls(), chase_options);
}

}  // namespace dxrec
