#include "logic/tgd.h"

#include <unordered_set>

namespace dxrec {

namespace {

// Variables of `atoms`, deduplicated, first-occurrence order.
std::vector<Term> VarsOf(const std::vector<Atom>& atoms) {
  std::vector<Term> out;
  std::unordered_set<Term, TermHash> seen;
  for (const Atom& a : atoms) {
    for (Term t : a.args()) {
      if (t.is_variable() && seen.insert(t).second) out.push_back(t);
    }
  }
  return out;
}

bool ContainsTerm(const std::vector<Term>& terms, Term t) {
  for (Term u : terms) {
    if (u == t) return true;
  }
  return false;
}

}  // namespace

Result<Tgd> Tgd::Make(std::vector<Atom> body, std::vector<Atom> head) {
  if (head.empty()) {
    return Status::InvalidArgument("tgd must have a non-empty head");
  }
  if (body.empty()) {
    return Status::InvalidArgument("tgd must have a non-empty body");
  }
  for (const Atom& a : body) {
    for (Term t : a.args()) {
      if (t.is_null()) {
        return Status::InvalidArgument("tgd atoms may not contain nulls: " +
                                       a.ToString());
      }
    }
  }
  for (const Atom& a : head) {
    for (Term t : a.args()) {
      if (t.is_null()) {
        return Status::InvalidArgument("tgd atoms may not contain nulls: " +
                                       a.ToString());
      }
    }
  }
  Tgd tgd;
  tgd.body_ = std::move(body);
  tgd.head_ = std::move(head);
  tgd.DeriveVariableClasses();
  return tgd;
}

void Tgd::DeriveVariableClasses() {
  body_vars_ = VarsOf(body_);
  head_vars_ = VarsOf(head_);
  frontier_.clear();
  body_only_.clear();
  head_existential_.clear();
  all_vars_.clear();
  for (Term v : body_vars_) {
    if (ContainsTerm(head_vars_, v)) {
      frontier_.push_back(v);
    } else {
      body_only_.push_back(v);
    }
    all_vars_.push_back(v);
  }
  for (Term v : head_vars_) {
    if (!ContainsTerm(body_vars_, v)) {
      head_existential_.push_back(v);
      all_vars_.push_back(v);
    }
  }
}

Tgd Tgd::Reverse() const {
  Tgd out;
  out.body_ = head_;
  out.head_ = body_;
  out.DeriveVariableClasses();
  return out;
}

Tgd Tgd::Apply(const Substitution& renaming) const {
  Tgd out;
  out.body_.reserve(body_.size());
  out.head_.reserve(head_.size());
  for (const Atom& a : body_) out.body_.push_back(a.Apply(renaming));
  for (const Atom& a : head_) out.head_.push_back(a.Apply(renaming));
  out.DeriveVariableClasses();
  return out;
}

Tgd Tgd::RenameApart(VariableRenamer* renamer) const {
  std::vector<Substitution::Binding> renaming;
  renaming.reserve(all_vars_.size());
  for (Term v : all_vars_) renaming.emplace_back(v, renamer->Fresh());
  return Apply(Substitution::FromDistinct(std::move(renaming)));
}

Instance Tgd::BodyInstance() const {
  Instance out;
  out.AddAll(body_);
  return out;
}

Instance Tgd::HeadInstance() const {
  Instance out;
  out.AddAll(head_);
  return out;
}

std::string Tgd::ToString() const {
  std::string out;
  bool first = true;
  for (const Atom& a : body_) {
    if (!first) out += ", ";
    first = false;
    out += a.ToString();
  }
  out += " -> ";
  if (!head_existential_.empty()) {
    out += "exists ";
    first = true;
    for (Term v : head_existential_) {
      if (!first) out += ", ";
      first = false;
      out += v.ToString();
    }
    out += ": ";
  }
  first = true;
  for (const Atom& a : head_) {
    if (!first) out += ", ";
    first = false;
    out += a.ToString();
  }
  return out;
}

}  // namespace dxrec
