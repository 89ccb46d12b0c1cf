#include "relational/columnar.h"

#include <algorithm>

#include "obs/stats.h"
#include "relational/instance.h"

namespace dxrec {

uint32_t TermDictionary::Encode(Term t) {
  size_t i = 0;
  if (!slots_.empty()) {
    i = FindSlot(t);
    if (slots_[i] != kNoCode) return slots_[i];
  }
  if (2 * (terms_.size() + 1) > slots_.size()) {
    Grow();
    i = FindSlot(t);
  }
  slots_[i] = static_cast<uint32_t>(terms_.size());
  terms_.push_back(t);
  return slots_[i];
}

uint32_t TermDictionary::Find(Term t) const {
  return slots_.empty() ? kNoCode : slots_[FindSlot(t)];
}

size_t TermDictionary::FindSlot(Term t) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = TermHash()(t) & mask;; i = (i + 1) & mask) {
    const uint32_t code = slots_[i];
    if (code == kNoCode || terms_[code] == t) return i;
  }
}

void TermDictionary::Grow() {
  slots_.assign(slots_.empty() ? 16 : 2 * slots_.size(), kNoCode);
  for (uint32_t code = 0; code < terms_.size(); ++code) {
    slots_[FindSlot(terms_[code])] = code;
  }
}

std::span<const uint32_t> ColumnarRelation::Postings(uint32_t pos,
                                                     uint32_t code) const {
  if (pos >= postings_.size()) return {};
  const PositionPostings& p = postings_[pos];
  const size_t mask = p.directory.size() - 1;
  for (size_t i = HomeSlot(code, p.shift);; i = (i + 1) & mask) {
    const CodeRun& run = p.directory[i];
    // An empty slot ends the probe (and serves a kNoCode probe as an
    // empty run).
    if (run.code == code || run.code == TermDictionary::kNoCode) {
      return std::span<const uint32_t>(p.rows).subspan(run.begin, run.size);
    }
  }
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
  // Second pass: columns (kNoCode-padded to the widest arity), then each
  // position's postings: its (code, row) pairs in sorted order, so every
  // code's run of rows comes out ascending, and the directory of runs.
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  std::vector<ColumnarRelation::CodeRun> runs;
  for (auto& [rel_id, rel] : relations_) {
    (void)rel_id;
    const uint32_t num_rows = static_cast<uint32_t>(rel.rows_.size());
    rel.width_ = rel.uniform_arity_;
    for (uint32_t arity : rel.arities_) {
      rel.width_ = std::max(rel.width_, arity);
    }
    rel.columns_.assign(size_t{rel.width_} * num_rows,
                        TermDictionary::kNoCode);
    rel.locals_.resize(num_rows);
    for (uint32_t row = 0; row < num_rows; ++row) {
      rel.locals_[row] = row;
      const Atom& a = atoms[rel.rows_[row]];
      for (uint32_t pos = 0; pos < a.arity(); ++pos) {
        rel.columns_[size_t{pos} * num_rows + row] = dict_.Find(a.arg(pos));
      }
    }
    rel.postings_.resize(rel.width_);
    for (uint32_t pos = 0; pos < rel.width_; ++pos) {
      pairs.clear();
      for (uint32_t row = 0; row < num_rows; ++row) {
        const uint32_t code = rel.code(pos, row);
        if (code != TermDictionary::kNoCode) pairs.emplace_back(code, row);
      }
      std::sort(pairs.begin(), pairs.end());
      ColumnarRelation::PositionPostings& p = rel.postings_[pos];
      p.rows.reserve(pairs.size());
      runs.clear();
      for (const auto& [code, row] : pairs) {
        if (runs.empty() || runs.back().code != code) {
          runs.push_back({code, static_cast<uint32_t>(p.rows.size()), 0});
        }
        ++runs.back().size;
        p.rows.push_back(row);
      }
      uint32_t log2_capacity = 1;
      while ((size_t{1} << log2_capacity) < 2 * runs.size()) ++log2_capacity;
      p.shift = 64 - log2_capacity;
      p.directory.assign(size_t{1} << log2_capacity,
                         ColumnarRelation::CodeRun());
      const size_t mask = p.directory.size() - 1;
      for (const ColumnarRelation::CodeRun& run : runs) {
        size_t i = ColumnarRelation::HomeSlot(run.code, p.shift);
        while (p.directory[i].code != TermDictionary::kNoCode) {
          i = (i + 1) & mask;
        }
        p.directory[i] = run;
      }
    }
  }
}

const ColumnarRelation* ColumnarInstance::Relation(RelationId rel) const {
  auto it = relations_.find(rel);
  return it == relations_.end() ? nullptr : &it->second;
}

std::span<const uint32_t> ColumnarInstance::Rows(RelationId rel) const {
  obs::stats::NoteFullScan();
  auto it = relations_.find(rel);
  if (it == relations_.end()) return {};
  return it->second.locals_;
}

std::span<const uint32_t> ColumnarInstance::Probe(RelationId rel,
                                                  uint32_t pos,
                                                  uint32_t code) const {
  obs::stats::NoteIndexProbe();
  auto it = relations_.find(rel);
  if (it == relations_.end()) return {};
  return it->second.Postings(pos, code);
}

}  // namespace dxrec
