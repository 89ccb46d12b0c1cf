#include "core/cover.h"

#include <algorithm>
#include <set>

#include "obs/events.h"

namespace dxrec {

CoverProblem::CoverProblem(const DependencySet& sigma,
                           const Instance& target,
                           const std::vector<HeadHom>& homs) {
  num_tuples_ = target.size();
  coverage_.resize(homs.size());
  covered_by_.assign(num_tuples_, {});
  for (size_t i = 0; i < homs.size(); ++i) {
    // J_h as tuple indices: the image of each head atom.
    std::vector<uint32_t>& tuples = coverage_[i];
    for (const Atom& a : sigma.at(homs[i].tgd).head()) {
      if (std::optional<uint32_t> t = target.IndexOf(a.Apply(homs[i].hom))) {
        tuples.push_back(*t);
      }
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

// The include/exclude enumeration behind AllCoversInto, on per-tuple
// cover counts. Level i decides hom i: exclude first, then include, so
// covers come out in the order of counting up with hom 0 as the most
// significant bit.
//
// A node at level i is dead once some tuple is neither covered by an
// included hom nor covered by any hom at or after i. The tuples that
// lose their last chance at level i are dying(i): those nothing covers
// for i = 0, and those whose last coverer is hom i - 1 otherwise. The
// parent at level i - 1 already checked every earlier dying list, and
// counts only grow along a path, so checking dying(i) decides the node:
// it is the prune above a leaf and the cover test at one.
class AllCoversSearch {
 public:
  AllCoversSearch(const std::vector<std::vector<uint32_t>>& coverage,
                  const std::vector<std::vector<uint32_t>>& covered_by,
                  const CoverOptions& options, std::vector<Cover>* out)
      : coverage_(coverage),
        count_(covered_by.size(), 0),
        dying_begin_(coverage.size() + 2, 0),
        forced_(coverage.size(), false),
        out_(out),
        budget_(options) {
    // dying(k) is dying_[dying_begin_[k] .. dying_begin_[k + 1]), filled
    // by a counting sort on the last coverer (covered_by is ascending).
    auto slot = [](const std::vector<uint32_t>& homs) {
      return homs.empty() ? size_t{0} : size_t{homs.back()} + 1;
    };
    for (const auto& homs : covered_by) ++dying_begin_[slot(homs) + 1];
    for (size_t k = 1; k < dying_begin_.size(); ++k) {
      dying_begin_[k] += dying_begin_[k - 1];
    }
    dying_.resize(covered_by.size());
    std::vector<uint32_t> next(dying_begin_.begin(), dying_begin_.end() - 1);
    for (uint32_t t = 0; t < covered_by.size(); ++t) {
      dying_[next[slot(covered_by[t])]++] = t;
      // Thm. 7's uniquely covered tuples: every cover holds their hom.
      if (covered_by[t].size() == 1) forced_[covered_by[t][0]] = true;
    }
  }

  Status Run() { return Visit(0); }

 private:
  bool DyingCovered(size_t i) const {
    for (uint32_t k = dying_begin_[i]; k < dying_begin_[i + 1]; ++k) {
      if (count_[dying_[k]] == 0) return false;
    }
    return true;
  }

  Status Visit(size_t i) {
    if (!budget_.nodes.Consume()) return budget_.nodes.Exhausted();
    if (!DyingCovered(i)) return Status::Ok();
    if (i == coverage_.size()) {
      // A complete include/exclude assignment that covers. Each subset
      // reaches exactly one leaf, so there are no duplicates.
      if (!budget_.covers.Consume()) return budget_.covers.Exhausted();
      out_->push_back(current_);
      return Status::Ok();
    }
    // Exclude hom i. For a forced hom that branch leaves its unique tuple
    // unreachable, so it would stop at its first node; charge that node
    // without the visit so cover.nodes reads the same either way.
    if (forced_[i]) {
      if (!budget_.nodes.Consume()) return budget_.nodes.Exhausted();
    } else {
      Status status = Visit(i + 1);
      if (!status.ok()) return status;
    }
    // Include hom i.
    for (uint32_t t : coverage_[i]) ++count_[t];
    current_.push_back(i);
    Status status = Visit(i + 1);
    current_.pop_back();
    for (uint32_t t : coverage_[i]) --count_[t];
    return status;
  }

  const std::vector<std::vector<uint32_t>>& coverage_;
  // Included homs covering each tuple.
  std::vector<uint32_t> count_;
  std::vector<uint32_t> dying_begin_;
  std::vector<uint32_t> dying_;
  std::vector<bool> forced_;
  Cover current_;
  std::vector<Cover>* out_;
  Budget budget_;
};

// Branch-and-exclude enumeration of the minimal covers of `universe`
// (sorted target tuple indices), on per-tuple cover counts: each node
// branches on the homs covering its first uncovered tuple, in hom order,
// and excludes each hom from the later branches once its own returns.
// Candidates are collected sorted in `out`; minimality is checked after.
class MinimalCoversSearch {
 public:
  MinimalCoversSearch(const std::vector<std::vector<uint32_t>>& coverage,
                      const std::vector<std::vector<uint32_t>>& covered_by,
                      std::vector<uint32_t> universe,
                      const CoverOptions& options, std::set<Cover>* out)
      : coverage_(coverage),
        covered_by_(covered_by),
        universe_(std::move(universe)),
        count_(covered_by.size(), 0),
        excluded_(coverage.size(), false),
        out_(out),
        budget_(options) {}

  Status Run() { return Visit(0); }

 private:
  // `from`: universe_[0 .. from) is covered, as coverage only grows
  // along a path.
  Status Visit(size_t from) {
    if (!budget_.nodes.Consume()) return budget_.nodes.Exhausted();
    while (from < universe_.size() && count_[universe_[from]] > 0) ++from;
    if (from == universe_.size()) {
      Cover sorted = current_;
      std::sort(sorted.begin(), sorted.end());
      if (out_->insert(std::move(sorted)).second) {
        if (!budget_.covers.Consume()) return budget_.covers.Exhausted();
      }
      return Status::Ok();
    }
    // Exclusions made here last until this node returns; undo_ holds
    // those of every open node, innermost last.
    const size_t undo_mark = undo_.size();
    Status status;
    for (uint32_t h : covered_by_[universe_[from]]) {
      if (excluded_[h]) continue;
      for (uint32_t t : coverage_[h]) ++count_[t];
      current_.push_back(h);
      status = Visit(from + 1);
      current_.pop_back();
      for (uint32_t t : coverage_[h]) --count_[t];
      if (!status.ok()) break;
      excluded_[h] = true;  // avoid rediscovering the same sets
      undo_.push_back(h);
    }
    for (size_t k = undo_mark; k < undo_.size(); ++k) {
      excluded_[undo_[k]] = false;
    }
    undo_.resize(undo_mark);
    return status;
  }

  const std::vector<std::vector<uint32_t>>& coverage_;
  const std::vector<std::vector<uint32_t>>& covered_by_;
  const std::vector<uint32_t> universe_;
  std::vector<uint32_t> count_;
  std::vector<bool> excluded_;
  std::vector<uint32_t> undo_;
  Cover current_;
  std::set<Cover>* out_;
  Budget budget_;
};

// True iff no hom of `cover` (which covers `in_universe`) is redundant:
// each covers some universe tuple no other hom of the cover does.
bool IsMinimalCover(const std::vector<std::vector<uint32_t>>& coverage,
                    const std::vector<bool>& in_universe, const Cover& cover,
                    std::vector<uint32_t>* count) {
  for (size_t h : cover) {
    for (uint32_t t : coverage[h]) ++(*count)[t];
  }
  bool minimal = true;
  for (size_t h : cover) {
    bool needed = false;
    for (uint32_t t : coverage[h]) {
      needed = needed || (in_universe[t] && (*count)[t] == 1);
    }
    minimal = minimal && needed;
  }
  for (size_t h : cover) {
    for (uint32_t t : coverage[h]) --(*count)[t];
  }
  return minimal;
}

}  // namespace

Status CoverProblem::AllCoversInto(const CoverOptions& options,
                                   std::vector<Cover>* out) const {
  return AllCoversSearch(coverage_, covered_by_, options, out).Run();
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
  std::vector<bool> in_universe(num_tuples_, false);
  for (uint32_t t : tuples) in_universe[t] = true;
  std::vector<uint32_t> universe;
  for (uint32_t t = 0; t < num_tuples_; ++t) {
    if (in_universe[t]) universe.push_back(t);
  }
  std::set<Cover> found;
  Status status = MinimalCoversSearch(coverage_, covered_by_,
                                      std::move(universe), options, &found)
                      .Run();

  // Filter even the partial set on error: minimality of a cover is
  // intrinsic (no element redundant), not relative to the other covers,
  // so a truncated enumeration still yields only correct entries.
  std::vector<uint32_t> count(num_tuples_, 0);
  for (const Cover& cover : found) {
    if (IsMinimalCover(coverage_, in_universe, cover, &count)) {
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
