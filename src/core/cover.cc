#include "core/cover.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "obs/events.h"

namespace dxrec {

namespace {

// Minimal dynamic bitset for coverage masks.
class Bits {
 public:
  explicit Bits(size_t n) : n_(n), words_((n + 63) / 64, 0) {}

  void Set(size_t i) { words_[i >> 6] |= (1ull << (i & 63)); }
  bool Test(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ull;
  }
  void OrWith(const Bits& other) {
    for (size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
  }
  bool Covers(const Bits& other) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      if ((other.words_[w] & ~words_[w]) != 0) return false;
    }
    return true;
  }
  // Covers(other) of the union of *this and `extra`, without building it.
  bool CoversWith(const Bits& extra, const Bits& other) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      if ((other.words_[w] & ~(words_[w] | extra.words_[w])) != 0) {
        return false;
      }
    }
    return true;
  }
  bool All() const {
    size_t full = n_ / 64;
    for (size_t w = 0; w < full; ++w) {
      if (words_[w] != ~0ull) return false;
    }
    size_t rest = n_ & 63;
    if (rest != 0) {
      uint64_t mask = (1ull << rest) - 1;
      if ((words_[full] & mask) != mask) return false;
    }
    return true;
  }
  // First index in `universe` (a bit mask) not set in *this; -1 if none.
  int64_t FirstUncovered(const Bits& universe) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t missing = universe.words_[w] & ~words_[w];
      if (missing != 0) {
        return static_cast<int64_t>(w * 64 +
                                    __builtin_ctzll(missing));
      }
    }
    return -1;
  }

 private:
  size_t n_;
  std::vector<uint64_t> words_;
};

}  // namespace

CoverProblem::CoverProblem(const DependencySet& sigma,
                           const Instance& target,
                           const std::vector<HeadHom>& homs) {
  num_tuples_ = target.size();
  // Map each target tuple to its index.
  std::unordered_map<Atom, uint32_t, AtomHash> tuple_index;
  for (uint32_t i = 0; i < target.atoms().size(); ++i) {
    tuple_index.emplace(target.atoms()[i], i);
  }
  coverage_.resize(homs.size());
  covered_by_.assign(num_tuples_, {});
  for (size_t i = 0; i < homs.size(); ++i) {
    // J_h as tuple indices: the image of each head atom.
    std::vector<uint32_t>& tuples = coverage_[i];
    for (const Atom& a : sigma.at(homs[i].tgd).head()) {
      auto it = tuple_index.find(a.Apply(homs[i].hom));
      if (it != tuple_index.end()) tuples.push_back(it->second);
    }
    std::sort(tuples.begin(), tuples.end());
    tuples.erase(std::unique(tuples.begin(), tuples.end()), tuples.end());
    for (uint32_t t : tuples) {
      covered_by_[t].push_back(static_cast<uint32_t>(i));
    }
  }
}

bool CoverProblem::AllTuplesCoverable() const {
  for (const auto& homs : covered_by_) {
    if (homs.empty()) return false;
  }
  return true;
}

namespace {

struct Budget {
  obs::BudgetMeter nodes;
  obs::BudgetMeter covers;

  explicit Budget(const CoverOptions& options)
      : nodes("cover.nodes", "cover_enum", options.max_nodes,
              options.context),
        covers("cover.covers", "cover_enum", options.max_covers,
               options.context) {}
};

// Recursively enumerates all subsets of homs [i..m) whose union with
// `covered` covers `universe`. `suffix_union[i]` is the union of coverage
// of homs i..m-1. `forced[i]` marks a hom that is the only coverer of
// some tuple (Thm. 7's uniquely covered tuples): every cover contains it.
Status AllCoversRec(const std::vector<Bits>& hom_bits,
                    const std::vector<Bits>& suffix_union,
                    const std::vector<bool>& forced,
                    const Bits& universe, size_t i, Bits covered,
                    Cover* current, std::vector<Cover>* out,
                    Budget* budget) {
  if (!budget->nodes.Consume()) return budget->nodes.Exhausted();
  if (i == hom_bits.size()) {
    // A complete include/exclude assignment; emit iff it covers. Each
    // subset reaches exactly one leaf, so there are no duplicates.
    if (covered.Covers(universe)) {
      if (!budget->covers.Consume()) return budget->covers.Exhausted();
      out->push_back(*current);
    }
    return Status::Ok();
  }
  // Prune: the remaining homs must be able to finish the job.
  if (!covered.CoversWith(suffix_union[i], universe)) return Status::Ok();

  // Exclude hom i. For a forced hom that branch leaves its unique tuple
  // unreachable, so it would stop at its first node; charge that node
  // without the visit so cover.nodes reads the same either way.
  if (forced[i]) {
    if (!budget->nodes.Consume()) return budget->nodes.Exhausted();
  } else {
    Status status = AllCoversRec(hom_bits, suffix_union, forced, universe,
                                 i + 1, covered, current, out, budget);
    if (!status.ok()) return status;
  }
  // Include hom i.
  covered.OrWith(hom_bits[i]);
  current->push_back(i);
  Status status = AllCoversRec(hom_bits, suffix_union, forced, universe,
                               i + 1, std::move(covered), current, out,
                               budget);
  current->pop_back();
  return status;
}

// Branch-and-dedup enumeration of minimal covers of `universe`.
Status MinimalCoversRec(const std::vector<Bits>& hom_bits,
                        const std::vector<std::vector<uint32_t>>& covered_by,
                        const Bits& universe, Bits covered,
                        std::vector<bool> excluded, Cover* current,
                        std::set<Cover>* out, Budget* budget) {
  if (!budget->nodes.Consume()) return budget->nodes.Exhausted();
  int64_t tuple = covered.FirstUncovered(universe);
  if (tuple < 0) {
    // Cover complete. Minimality is verified by the caller
    // (IsMinimalCover); here we only record the candidate, sorted for
    // set-dedup.
    Cover sorted = *current;
    std::sort(sorted.begin(), sorted.end());
    if (out->insert(sorted).second) {
      if (!budget->covers.Consume()) return budget->covers.Exhausted();
    }
    return Status::Ok();
  }
  for (uint32_t h : covered_by[static_cast<size_t>(tuple)]) {
    if (excluded[h]) continue;
    Bits with = covered;
    with.OrWith(hom_bits[h]);
    current->push_back(h);
    Status status = MinimalCoversRec(hom_bits, covered_by, universe, with,
                                     excluded, current, out, budget);
    current->pop_back();
    if (!status.ok()) return status;
    excluded[h] = true;  // avoid rediscovering the same sets
  }
  return Status::Ok();
}

bool IsMinimalCover(const std::vector<Bits>& hom_bits, const Bits& universe,
                    const Cover& cover, size_t num_bits) {
  for (size_t drop = 0; drop < cover.size(); ++drop) {
    Bits acc(num_bits);
    for (size_t i = 0; i < cover.size(); ++i) {
      if (i == drop) continue;
      acc.OrWith(hom_bits[cover[i]]);
    }
    if (acc.Covers(universe)) return false;  // cover[drop] redundant
  }
  return true;
}

}  // namespace

Status CoverProblem::AllCoversInto(const CoverOptions& options,
                                   std::vector<Cover>* out) const {
  std::vector<Bits> hom_bits;
  hom_bits.reserve(coverage_.size());
  for (const auto& tuples : coverage_) {
    Bits b(num_tuples_);
    for (uint32_t t : tuples) b.Set(t);
    hom_bits.push_back(b);
  }
  Bits universe(num_tuples_);
  for (size_t t = 0; t < num_tuples_; ++t) universe.Set(t);
  std::vector<Bits> suffix_union(hom_bits.size() + 1, Bits(num_tuples_));
  for (size_t i = hom_bits.size(); i-- > 0;) {
    suffix_union[i] = suffix_union[i + 1];
    suffix_union[i].OrWith(hom_bits[i]);
  }
  std::vector<bool> forced(hom_bits.size(), false);
  for (const auto& homs : covered_by_) {
    if (homs.size() == 1) forced[homs[0]] = true;
  }
  Cover current;
  Budget budget(options);
  return AllCoversRec(hom_bits, suffix_union, forced, universe, 0,
                      Bits(num_tuples_), &current, out, &budget);
}

Status CoverProblem::MinimalCoversInto(const CoverOptions& options,
                                       std::vector<Cover>* out) const {
  std::vector<uint32_t> all_tuples;
  all_tuples.reserve(num_tuples_);
  for (uint32_t t = 0; t < num_tuples_; ++t) all_tuples.push_back(t);
  return MinimalCoversOfInto(all_tuples, options, out);
}

Status CoverProblem::MinimalCoversOfInto(const std::vector<uint32_t>& tuples,
                                         const CoverOptions& options,
                                         std::vector<Cover>* out) const {
  std::vector<Bits> hom_bits;
  hom_bits.reserve(coverage_.size());
  for (const auto& covered : coverage_) {
    Bits b(num_tuples_);
    for (uint32_t t : covered) b.Set(t);
    hom_bits.push_back(b);
  }
  Bits universe(num_tuples_);
  for (uint32_t t : tuples) universe.Set(t);

  std::set<Cover> found;
  Cover current;
  Budget budget(options);
  Status status = MinimalCoversRec(
      hom_bits, covered_by_, universe, Bits(num_tuples_),
      std::vector<bool>(coverage_.size(), false), &current, &found, &budget);

  // Filter even the partial set on error: minimality of a cover is
  // intrinsic (no element redundant), not relative to the other covers,
  // so a truncated enumeration still yields only correct entries.
  for (const Cover& cover : found) {
    if (IsMinimalCover(hom_bits, universe, cover, num_tuples_)) {
      out->push_back(cover);
    }
  }
  return status;
}

Result<std::vector<Cover>> CoverProblem::AllCovers(
    const CoverOptions& options) const {
  std::vector<Cover> out;
  Status status = AllCoversInto(options, &out);
  if (!status.ok()) return status;
  return out;
}

Result<std::vector<Cover>> CoverProblem::MinimalCovers(
    const CoverOptions& options) const {
  std::vector<Cover> out;
  Status status = MinimalCoversInto(options, &out);
  if (!status.ok()) return status;
  return out;
}

Result<std::vector<Cover>> CoverProblem::MinimalCoversOf(
    const std::vector<uint32_t>& tuples, const CoverOptions& options) const {
  std::vector<Cover> out;
  Status status = MinimalCoversOfInto(tuples, options, &out);
  if (!status.ok()) return status;
  return out;
}

}  // namespace dxrec
