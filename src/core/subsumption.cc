#include "core/subsumption.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "base/fresh.h"
#include "logic/unification.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dxrec {

namespace {

// Index of each frontier variable within the tgd's head_vars() order.
std::vector<size_t> FrontierPositionsInHead(const Tgd& tgd) {
  std::vector<size_t> out;
  for (Term v : tgd.frontier_vars()) {
    for (size_t k = 0; k < tgd.head_vars().size(); ++k) {
      if (tgd.head_vars()[k] == v) {
        out.push_back(k);
        break;
      }
    }
  }
  return out;
}

// Canonical rendering with constraint variables renamed r0, r1, ... in
// first-occurrence order; used for dedup and for ToString.
std::string Canonical(const SubsumptionConstraint& c,
                      const DependencySet& sigma) {
  // Sort premises by (tgd, local pattern) for a stable order.
  std::vector<const SubPremise*> order;
  for (const SubPremise& p : c.premises) order.push_back(&p);
  auto local_pattern = [](const SubPremise& p) {
    std::unordered_map<Term, int, TermHash> first;
    std::string s;
    for (Term t : p.head_images) {
      if (t.is_variable()) {
        auto [it, inserted] = first.emplace(t, static_cast<int>(first.size()));
        (void)inserted;
        s += "r" + std::to_string(it->second) + ",";
      } else {
        s += t.ToString() + ",";
      }
    }
    return s;
  };
  std::sort(order.begin(), order.end(),
            [&](const SubPremise* a, const SubPremise* b) {
              if (a->tgd != b->tgd) return a->tgd < b->tgd;
              return local_pattern(*a) < local_pattern(*b);
            });
  std::unordered_map<Term, std::string, TermHash> names;
  auto name_of = [&names](Term t) -> std::string {
    if (!t.is_variable()) return t.ToString();
    auto it = names.find(t);
    if (it == names.end()) {
      it = names.emplace(t, "r" + std::to_string(names.size())).first;
    }
    return it->second;
  };
  std::string out;
  for (const SubPremise* p : order) {
    out += "{tgd" + std::to_string(p->tgd) + ": ";
    const Tgd& tgd = sigma.at(p->tgd);
    for (size_t k = 0; k < p->head_images.size(); ++k) {
      if (k > 0) out += ", ";
      out += tgd.head_vars()[k].ToString() + "/" +
             name_of(p->head_images[k]);
    }
    out += "} ";
  }
  out += "-> {tgd" + std::to_string(c.conclusion) + ": ";
  const Tgd& t0 = sigma.at(c.conclusion);
  for (size_t k = 0; k < c.conclusion_images.size(); ++k) {
    if (k > 0) out += ", ";
    out += t0.frontier_vars()[k].ToString() + "/" +
           name_of(c.conclusion_images[k]);
  }
  out += "}";
  return out;
}

// True if some premise over the conclusion's tgd pins exactly the
// conclusion's frontier images, so the premise hom itself witnesses the
// conclusion for any H.
bool IsTautological(const SubsumptionConstraint& c,
                    const DependencySet& sigma) {
  const Tgd& t0 = sigma.at(c.conclusion);
  std::vector<size_t> frontier_in_head = FrontierPositionsInHead(t0);
  for (const SubPremise& p : c.premises) {
    if (p.tgd != c.conclusion) continue;
    bool matches = true;
    for (size_t k = 0; k < c.conclusion_images.size() && matches; ++k) {
      matches = (p.head_images[frontier_in_head[k]] ==
                 c.conclusion_images[k]);
    }
    if (matches) return true;
  }
  return false;
}

// Recursive assignment of the subsumed tgd's body atoms to (copy, body
// atom) slots, unifying as we go.
class Generator {
 public:
  Generator(const DependencySet& sigma, TgdId xi0,
            const SubsumptionOptions& options,
            std::vector<SubsumptionConstraint>* out,
            std::set<std::string>* seen, obs::BudgetMeter* nodes,
            VariableRenamer* renamer)
      : sigma_(sigma),
        xi0_id_(xi0),
        xi0_(sigma.at(xi0)),
        options_(options),
        out_(out),
        seen_(seen),
        nodes_(nodes),
        renamer_(renamer) {
    max_premises_ = options.max_premises == 0 ? xi0_.body().size()
                                              : options.max_premises;
  }

  Status Run() {
    Unifier unifier;
    std::vector<Copy> copies;
    return Assign(0, copies, unifier);
  }

 private:
  struct Copy {
    TgdId tgd;
    Tgd renamed;
  };

  Status Assign(size_t j, std::vector<Copy>& copies, Unifier& unifier) {
    if (!nodes_->Consume()) return nodes_->Exhausted();
    if (j == xi0_.body().size()) {
      Emit(copies, unifier);
      if (out_->size() > options_.max_constraints) {
        return obs::BudgetExhausted({"subsumption.constraints",
                                     options_.max_constraints, out_->size(),
                                     "subsumption"});
      }
      return Status::Ok();
    }
    const Atom& atom = xi0_.body()[j];

    // Option A: reuse an existing copy's body atom.
    for (size_t c = 0; c < copies.size(); ++c) {
      for (const Atom& b : copies[c].renamed.body()) {
        if (b.relation() != atom.relation() || b.arity() != atom.arity()) {
          continue;
        }
        Unifier branch = unifier;
        if (!branch.UnifyAtoms(atom, b)) continue;
        Status status = Assign(j + 1, copies, branch);
        if (!status.ok()) return status;
      }
    }

    // Option B: open a new copy of any tgd.
    if (copies.size() < max_premises_) {
      for (TgdId t = 0; t < sigma_.size(); ++t) {
        // Rename apart only a tgd that can host `atom`.
        const std::vector<Atom>& body = sigma_.at(t).body();
        if (std::none_of(body.begin(), body.end(), [&atom](const Atom& b) {
              return b.relation() == atom.relation() &&
                     b.arity() == atom.arity();
            })) {
          continue;
        }
        // The copy lives until the loop below ends; emitted constraints
        // keep only their own images, so its ids are free again then.
        const uint32_t mark = renamer_->mark();
        Tgd renamed = sigma_.at(t).RenameApart(renamer_);
        // Try each body atom of the new copy as the host for `atom`.
        for (const Atom& b : renamed.body()) {
          if (b.relation() != atom.relation() || b.arity() != atom.arity()) {
            continue;
          }
          Unifier branch = unifier;
          for (Term v : renamed.frontier_vars()) {
            branch.Declare(v, VarClass::kPremise);
          }
          for (Term v : renamed.head_existential_vars()) {
            branch.Declare(v, VarClass::kPremise);
          }
          for (Term v : renamed.body_only_vars()) {
            branch.Declare(v, VarClass::kFrozen);
          }
          if (!branch.UnifyAtoms(atom, b)) continue;
          copies.push_back(Copy{t, renamed});
          Status status = Assign(j + 1, copies, branch);
          copies.pop_back();
          if (!status.ok()) return status;
        }
        renamer_->Rewind(mark);
      }
    }
    return Status::Ok();
  }

  void Emit(const std::vector<Copy>& copies, const Unifier& unifier) {
    if (copies.empty()) return;
    SubsumptionConstraint c;
    c.conclusion = xi0_id_;
    for (const Copy& copy : copies) {
      SubPremise premise;
      premise.tgd = copy.tgd;
      for (Term v : copy.renamed.head_vars()) {
        premise.head_images.push_back(unifier.Resolve(v));
      }
      c.premises.push_back(std::move(premise));
    }
    // Collapse duplicate premises (same tgd, same images).
    std::vector<SubPremise> unique;
    for (const SubPremise& p : c.premises) {
      bool dup = false;
      for (const SubPremise& q : unique) {
        if (q.tgd == p.tgd && q.head_images == p.head_images) {
          dup = true;
          break;
        }
      }
      if (!dup) unique.push_back(p);
    }
    c.premises = std::move(unique);
    for (Term v : xi0_.frontier_vars()) {
      c.conclusion_images.push_back(unifier.Resolve(v));
    }
    if (IsTautological(c, sigma_)) return;
    std::string key = Canonical(c, sigma_);
    if (!seen_->insert(key).second) return;
    out_->push_back(std::move(c));
  }

  const DependencySet& sigma_;
  TgdId xi0_id_;
  const Tgd& xi0_;
  const SubsumptionOptions& options_;
  size_t max_premises_;
  std::vector<SubsumptionConstraint>* out_;
  std::set<std::string>* seen_;
  obs::BudgetMeter* nodes_;
  VariableRenamer* renamer_;
};

}  // namespace

std::string SubsumptionConstraint::ToString(
    const DependencySet& sigma) const {
  return Canonical(*this, sigma);
}

Result<std::vector<SubsumptionConstraint>> ComputeSubsumption(
    const DependencySet& sigma, const SubsumptionOptions& options) {
  std::vector<SubsumptionConstraint> out;
  std::set<std::string> seen;
  obs::BudgetMeter nodes("subsumption.nodes", "subsumption",
                         options.max_nodes, options.context);
  VariableRenamer renamer;
  if (obs::Enabled()) {
    static obs::Counter* runs =
        obs::MetricsRegistry::Global().GetCounter("subsumption.runs");
    runs->Add(1);
  }
  for (TgdId xi0 = 0; xi0 < sigma.size(); ++xi0) {
    Generator gen(sigma, xi0, options, &out, &seen, &nodes, &renamer);
    Status status = gen.Run();
    if (!status.ok()) return status;
  }
  return out;
}

Result<SubsumptionSet> LoadSubsumption(const DependencySet& sigma,
                                       const SubsumptionOptions& options) {
  SubsumptionCache* cache =
      options.max_premises == 0 ? options.cache : nullptr;
  if (cache != nullptr) {
    if (SubsumptionSet stored = cache->Get()) return stored;
  }
  Result<std::vector<SubsumptionConstraint>> computed =
      ComputeSubsumption(sigma, options);
  if (!computed.ok()) return computed.status();
  SubsumptionSet sub =
      std::make_shared<const std::vector<SubsumptionConstraint>>(
          std::move(*computed));
  if (cache != nullptr) sub = cache->Put(std::move(sub));
  return sub;
}

namespace {

// Compiled form of one constraint against a concrete hom set: premises
// become join-indexed candidate tables and the conclusion becomes a
// signature set, so the for-all over premise matchings runs in time
// roughly linear in the number of matchings instead of |H|^(n+1).
class ModelChecker {
 public:
  ModelChecker(const std::vector<HeadHom>& homs,
               const SubsumptionConstraint& c, const DependencySet& sigma)
      : homs_(homs), c_(c), sigma_(sigma) {}

  bool Check() {
    // Assign dense ids to the constraint's image variables, premises
    // first (pinned vars), noting per-premise join/new splits.
    for (const SubPremise& premise : c_.premises) {
      PremisePlan plan;
      plan.tgd = premise.tgd;
      const Tgd& tgd = sigma_.at(premise.tgd);
      const std::vector<Term>& head_vars = tgd.head_vars();
      std::unordered_map<Term, size_t, TermHash> local_first;
      for (size_t k = 0; k < head_vars.size(); ++k) {
        Term image = premise.head_images[k];
        Slot slot;
        slot.position = k;
        if (!image.is_variable()) {
          slot.kind = Slot::kConstant;
          slot.constant = image;
        } else if (auto local_it = local_first.find(image);
                   local_it != local_first.end()) {
          // Repeated occurrence of a variable first introduced by this
          // premise: equality with the first occurrence's position.
          slot.kind = Slot::kLocalEq;
          slot.local_position = local_it->second;
        } else if (auto it = var_ids_.find(image); it != var_ids_.end()) {
          // Bound by an earlier premise: join.
          slot.kind = Slot::kJoin;
          slot.var = it->second;
        } else {
          slot.kind = Slot::kNew;
          slot.var =
              var_ids_.emplace(image, var_ids_.size()).first->second;
          local_first.emplace(image, k);
        }
        plan.slots.push_back(slot);
      }
      plans_.push_back(std::move(plan));
    }

    // Build candidate tables per premise.
    for (PremisePlan& plan : plans_) {
      const Tgd& tgd = sigma_.at(plan.tgd);
      const std::vector<Term>& head_vars = tgd.head_vars();
      for (const HeadHom& h : homs_) {
        if (h.tgd != plan.tgd) continue;
        Entry entry;
        bool ok = true;
        std::vector<Term> values(head_vars.size());
        for (size_t k = 0; k < head_vars.size(); ++k) {
          values[k] = h.hom.Apply(head_vars[k]);
        }
        for (const Slot& slot : plan.slots) {
          Term v = values[slot.position];
          switch (slot.kind) {
            case Slot::kConstant:
              ok = (v == slot.constant);
              break;
            case Slot::kLocalEq:
              ok = (v == values[slot.local_position]);
              break;
            case Slot::kJoin:
              entry.join_values.push_back(v);
              break;
            case Slot::kNew:
              entry.new_values.push_back(v);
              break;
          }
          if (!ok) break;
        }
        if (!ok) continue;
        plan.table[entry.join_values].push_back(std::move(entry));
      }
    }

    // Conclusion: positions referencing pinned vars form the signature;
    // constants and unpinned equality classes are checked per h0 when
    // building the signature set.
    const Tgd& t0 = sigma_.at(c_.conclusion);
    const std::vector<Term>& frontier = t0.frontier_vars();
    std::vector<int> pinned_ref(frontier.size(), -1);
    std::unordered_map<Term, size_t, TermHash> unpinned_class;
    std::vector<int> unpinned_ref(frontier.size(), -1);
    for (size_t k = 0; k < frontier.size(); ++k) {
      Term image = c_.conclusion_images[k];
      if (!image.is_variable()) continue;  // constant: checked per h0
      auto it = var_ids_.find(image);
      if (it != var_ids_.end()) {
        pinned_ref[k] = static_cast<int>(it->second);
        bool seen = false;
        for (size_t v : conclusion_vars_) {
          if (v == it->second) seen = true;
        }
        if (!seen) conclusion_vars_.push_back(it->second);
      } else {
        unpinned_ref[k] = static_cast<int>(
            unpinned_class.emplace(image, unpinned_class.size())
                .first->second);
      }
    }
    for (const HeadHom& h0 : homs_) {
      if (h0.tgd != c_.conclusion) continue;
      bool ok = true;
      std::vector<Term> unpinned(unpinned_class.size());
      std::vector<Term> sig(conclusion_vars_.size());
      for (size_t k = 0; k < frontier.size() && ok; ++k) {
        Term value = h0.hom.Apply(frontier[k]);
        Term image = c_.conclusion_images[k];
        if (!image.is_variable()) {
          ok = (value == image);
        } else if (pinned_ref[k] >= 0) {
          // Record under its conclusion_vars_ slot.
          for (size_t s = 0; s < conclusion_vars_.size(); ++s) {
            if (conclusion_vars_[s] ==
                static_cast<size_t>(pinned_ref[k])) {
              if (sig[s].is_valid() && sig[s] != value) ok = false;
              sig[s] = value;
            }
          }
        } else {
          Term& cls = unpinned[static_cast<size_t>(unpinned_ref[k])];
          if (cls.is_valid() && cls != value) ok = false;
          cls = value;
        }
      }
      if (ok) conclusion_ok_.insert(std::move(sig));
    }

    bindings_.assign(var_ids_.size(), Term());
    return Recurse(0);
  }

 private:
  struct Slot {
    enum Kind { kConstant, kJoin, kNew, kLocalEq } kind = kNew;
    size_t position = 0;        // head-var index
    size_t local_position = 0;  // for kLocalEq
    size_t var = 0;             // var-table id for kJoin / kNew
    Term constant;              // for kConstant
  };
  struct Entry {
    std::vector<Term> join_values;
    std::vector<Term> new_values;
  };
  struct PremisePlan {
    TgdId tgd = 0;
    std::vector<Slot> slots;
    std::map<std::vector<Term>, std::vector<Entry>> table;
  };

  // For-all over matchings; false on the first matching whose conclusion
  // signature is absent.
  bool Recurse(size_t i) {
    if (i == plans_.size()) {
      std::vector<Term> sig(conclusion_vars_.size());
      for (size_t s = 0; s < conclusion_vars_.size(); ++s) {
        sig[s] = bindings_[conclusion_vars_[s]];
      }
      return conclusion_ok_.count(sig) > 0;
    }
    const PremisePlan& plan = plans_[i];
    // Assemble the join key from current bindings.
    std::vector<Term> key;
    for (const Slot& slot : plan.slots) {
      if (slot.kind == Slot::kJoin) key.push_back(bindings_[slot.var]);
    }
    auto it = plan.table.find(key);
    if (it == plan.table.end()) return true;  // no matching: vacuous
    for (const Entry& entry : it->second) {
      size_t n = 0;
      for (const Slot& slot : plan.slots) {
        if (slot.kind == Slot::kNew) {
          bindings_[slot.var] = entry.new_values[n++];
        }
      }
      if (!Recurse(i + 1)) return false;
    }
    return true;
  }

  const std::vector<HeadHom>& homs_;
  const SubsumptionConstraint& c_;
  const DependencySet& sigma_;
  std::unordered_map<Term, size_t, TermHash> var_ids_;
  std::vector<PremisePlan> plans_;
  std::vector<size_t> conclusion_vars_;
  std::set<std::vector<Term>> conclusion_ok_;
  std::vector<Term> bindings_;
};

}  // namespace

bool Models(const std::vector<HeadHom>& homs,
            const SubsumptionConstraint& constraint,
            const DependencySet& sigma) {
  return ModelChecker(homs, constraint, sigma).Check();
}

bool ModelsAll(const std::vector<HeadHom>& homs,
               const std::vector<SubsumptionConstraint>& constraints,
               const DependencySet& sigma, size_t* failing_constraint) {
  for (size_t i = 0; i < constraints.size(); ++i) {
    if (!Models(homs, constraints[i], sigma)) {
      if (failing_constraint != nullptr) *failing_constraint = i;
      return false;
    }
  }
  return true;
}

}  // namespace dxrec
