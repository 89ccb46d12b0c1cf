// Dictionary-encoded, column-major instance snapshots (ROADMAP item 1).
//
// A ColumnarInstance is an immutable view of one Instance: every term is
// interned into a dense uint32 code (TermDictionary), each relation's
// tuples are stored column-major (one code vector per argument position),
// and every (position, code) pair carries a postings list of matching
// rows. The homomorphism matcher runs entirely in code space on top of
// these lists — an index-nested-loop join over candidate postings instead
// of backtracking over materialized Atom vectors (Hyrise's chunked
// storage / tuple-materialization-free reading is the idiom).
//
// Contract (docs/STORAGE.md):
//   - rows are numbered in Instance insertion order per relation, so
//     postings lists enumerate candidates in insertion order and search
//     results are a function of the instance's insertion order alone;
//   - access-path attribution: Probe() counts as a
//     stats.instance.index_probes, Rows() as a stats.instance.full_scans.
//
// Snapshots are built lazily by Instance::Columnar() and invalidated on
// mutation. The lazy build is the only mutation a const read can
// trigger: call Instance::WarmColumnar() before sharing an instance
// across threads.
#ifndef DXREC_RELATIONAL_COLUMNAR_H_
#define DXREC_RELATIONAL_COLUMNAR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "base/term.h"
#include "relational/schema.h"

namespace dxrec {

class Instance;

// A one-value tag with no effect: columnar is the only layout. It stays
// only until the benchmark harness (dxrec-bench/layers.cc) drops it.
enum class InstanceLayout : uint8_t { kColumnar };

// Dense insertion-ordered term codes. Encoding the same term twice
// yields the same code; Decode(Encode(t)) == t for every term kind,
// labeled nulls included (the dictionary stores the 8-byte interned
// Term, so no identity is lost in the round-trip).
class TermDictionary {
 public:
  // Sentinel for "no code": also pads short rows in mixed-arity columns.
  static constexpr uint32_t kNoCode = 0xffffffffu;

  // Interns `t`, assigning the next dense code on first sight.
  uint32_t Encode(Term t);
  // The code of `t`, or kNoCode if it was never encoded.
  uint32_t Find(Term t) const;
  // The term behind a code returned by Encode/Find.
  Term Decode(uint32_t code) const { return terms_[code]; }

  size_t size() const { return terms_.size(); }

 private:
  std::vector<Term> terms_;
  std::unordered_map<Term, uint32_t, TermHash> codes_;
};

// One relation's tuples, column-major, with per-position postings.
// Rows are local (dense, insertion-ordered); global atom indices into
// Instance::atoms() are available through rows().
class ColumnarRelation {
 public:
  // Widest arity stored (relations may mix arities; the untyped schema
  // allows it, and the matcher filters per row).
  uint32_t width() const { return static_cast<uint32_t>(columns_.size()); }
  size_t num_rows() const { return rows_.size(); }

  // Global atom indices, ascending (== per-relation insertion order).
  const std::vector<uint32_t>& rows() const { return rows_; }

  uint32_t arity(uint32_t row) const {
    return arities_.empty() ? uniform_arity_ : arities_[row];
  }

  // The code at (pos, row); kNoCode where pos >= arity(row).
  uint32_t code(uint32_t pos, uint32_t row) const {
    return columns_[pos][row];
  }

  // Rows whose argument at `pos` has code `code`, ascending. Empty for
  // unseen codes or out-of-range positions.
  const std::vector<uint32_t>& Postings(uint32_t pos, uint32_t code) const;

 private:
  friend class ColumnarInstance;

  // Global atom indices, one per local row.
  std::vector<uint32_t> rows_;
  // Local row numbers 0..num_rows-1: the full-scan candidate list, in
  // the same (local) row space as the postings lists.
  std::vector<uint32_t> locals_;
  // Per-row arity; empty when every row has uniform_arity_.
  std::vector<uint32_t> arities_;
  uint32_t uniform_arity_ = 0;
  // columns_[pos][row]: dictionary codes, kNoCode-padded.
  std::vector<std::vector<uint32_t>> columns_;
  // postings_[pos]: code -> ascending local rows.
  std::vector<std::unordered_map<uint32_t, std::vector<uint32_t>>> postings_;
};

// An immutable columnar snapshot of one Instance.
class ColumnarInstance {
 public:
  explicit ColumnarInstance(const Instance& instance);

  const TermDictionary& dict() const { return dict_; }
  size_t size() const { return num_atoms_; }

  // The relation's columnar storage, or nullptr if it has no tuples.
  const ColumnarRelation* Relation(RelationId rel) const;

  // Access paths and their stats attribution:
  // Rows() is a full scan (stats.instance.full_scans), Probe() an index
  // probe (stats.instance.index_probes). Both return local row lists.
  const std::vector<uint32_t>& Rows(RelationId rel) const;
  const std::vector<uint32_t>& Probe(RelationId rel, uint32_t pos,
                                     uint32_t code) const;

 private:
  TermDictionary dict_;
  std::unordered_map<RelationId, ColumnarRelation> relations_;
  size_t num_atoms_ = 0;
};

}  // namespace dxrec

#endif  // DXREC_RELATIONAL_COLUMNAR_H_
