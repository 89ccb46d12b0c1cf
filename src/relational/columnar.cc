#include "relational/columnar.h"

#include <algorithm>

#include "obs/stats.h"
#include "relational/instance.h"

namespace dxrec {

namespace {

const std::vector<uint32_t>& EmptyRowVector() {
  static const std::vector<uint32_t>& empty = *new std::vector<uint32_t>();
  return empty;
}

}  // namespace

uint32_t TermDictionary::Encode(Term t) {
  auto [it, inserted] =
      codes_.try_emplace(t, static_cast<uint32_t>(terms_.size()));
  if (inserted) terms_.push_back(t);
  return it->second;
}

uint32_t TermDictionary::Find(Term t) const {
  auto it = codes_.find(t);
  return it == codes_.end() ? kNoCode : it->second;
}

const std::vector<uint32_t>& ColumnarRelation::Postings(uint32_t pos,
                                                        uint32_t code) const {
  if (pos >= postings_.size()) return EmptyRowVector();
  auto it = postings_[pos].find(code);
  if (it == postings_[pos].end()) return EmptyRowVector();
  return it->second;
}

ColumnarInstance::ColumnarInstance(const Instance& instance) {
  num_atoms_ = instance.size();
  const std::vector<Atom>& atoms = instance.atoms();
  // First pass: per-relation row lists (insertion order) and arities.
  // Codes are assigned in global atom order, so the dictionary is
  // deterministic and independent of the relation map's iteration order.
  for (uint32_t i = 0; i < atoms.size(); ++i) {
    const Atom& a = atoms[i];
    for (Term t : a.args()) dict_.Encode(t);
    ColumnarRelation& rel = relations_[a.relation()];
    if (rel.rows_.empty()) {
      rel.uniform_arity_ = a.arity();
    } else if (rel.arities_.empty() && a.arity() != rel.uniform_arity_) {
      // Mixed arity discovered: backfill the per-row arity vector.
      rel.arities_.assign(rel.rows_.size(), rel.uniform_arity_);
    }
    if (!rel.arities_.empty()) rel.arities_.push_back(a.arity());
    rel.rows_.push_back(i);
  }
  // Second pass: columns (kNoCode-padded to the widest arity) and
  // per-position postings, in row order so lists come out ascending.
  for (auto& [rel_id, rel] : relations_) {
    (void)rel_id;
    uint32_t width = rel.uniform_arity_;
    for (uint32_t arity : rel.arities_) width = std::max(width, arity);
    rel.columns_.assign(width, std::vector<uint32_t>(
                                   rel.rows_.size(), TermDictionary::kNoCode));
    rel.postings_.resize(width);
    rel.locals_.resize(rel.rows_.size());
    for (uint32_t row = 0; row < rel.locals_.size(); ++row) {
      rel.locals_[row] = row;
    }
    for (uint32_t row = 0; row < rel.rows_.size(); ++row) {
      const Atom& a = atoms[rel.rows_[row]];
      for (uint32_t pos = 0; pos < a.arity(); ++pos) {
        uint32_t code = dict_.Find(a.arg(pos));
        rel.columns_[pos][row] = code;
        rel.postings_[pos][code].push_back(row);
      }
    }
  }
}

const ColumnarRelation* ColumnarInstance::Relation(RelationId rel) const {
  auto it = relations_.find(rel);
  return it == relations_.end() ? nullptr : &it->second;
}

const std::vector<uint32_t>& ColumnarInstance::Rows(RelationId rel) const {
  obs::stats::NoteFullScan();
  auto it = relations_.find(rel);
  if (it == relations_.end()) return EmptyRowVector();
  return it->second.locals_;
}

const std::vector<uint32_t>& ColumnarInstance::Probe(RelationId rel,
                                                     uint32_t pos,
                                                     uint32_t code) const {
  obs::stats::NoteIndexProbe();
  auto it = relations_.find(rel);
  if (it == relations_.end()) return EmptyRowVector();
  return it->second.Postings(pos, code);
}

}  // namespace dxrec
