#include "logic/dependency_set.h"

#include "base/fresh.h"

namespace dxrec {

TgdId DependencySet::Add(Tgd tgd) {
  // Rename any variable already used by an earlier tgd, and any renamed
  // (uninterned) one: a renamer's copies of Sigma's tgds must not collide
  // with Sigma's own variables.
  Substitution renaming;
  for (Term v : tgd.all_vars()) {
    if (used_vars_.count(v) > 0 || v.id() >= Term::kFirstRenamedVariableId) {
      renaming.Set(v, FreshVariable(v.ToString()));
    }
  }
  if (!renaming.empty()) tgd = tgd.Apply(renaming);
  for (Term v : tgd.all_vars()) used_vars_.insert(v);
  tgds_.push_back(std::move(tgd));
  return tgds_.size() - 1;
}

DependencySet DependencySet::Reverse() const {
  DependencySet out;
  for (const Tgd& tgd : tgds_) out.Add(tgd.Reverse());
  return out;
}

Result<MappingSchema> DependencySet::InferSchema() const {
  Schema source;
  Schema target;
  for (const Tgd& tgd : tgds_) {
    for (const Atom& a : tgd.body()) {
      auto result = source.AddRelation(RelationName(a.relation()),
                                       a.arity());
      if (!result.ok()) return result.status();
    }
    for (const Atom& a : tgd.head()) {
      auto result = target.AddRelation(RelationName(a.relation()),
                                       a.arity());
      if (!result.ok()) return result.status();
    }
  }
  MappingSchema schema(std::move(source), std::move(target));
  Status status = schema.Validate();
  if (!status.ok()) return status;
  return schema;
}

std::string DependencySet::ToString() const {
  std::string out;
  for (const Tgd& tgd : tgds_) {
    out += tgd.ToString();
    out += "\n";
  }
  return out;
}

}  // namespace dxrec
