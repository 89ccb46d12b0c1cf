#include "chase/homomorphism.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "obs/alloc.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "resilience/execution_context.h"
#include "util/thread_pool.h"

namespace dxrec {

namespace {

// One search's worth of tallies flushed to the metrics registry. Shared
// by the sequential matcher and the parallel driver (which aggregates
// its chunks into a single logical search before flushing).
void FlushSearchCounters(uint64_t candidates_tried, uint64_t backtracks,
                         uint64_t results, bool truncated) {
  if (truncated && obs::EventsEnabled()) {
    obs::Emit("homs.truncated",
              {{"results", static_cast<int64_t>(results)}});
  }
  if (!obs::Enabled()) return;
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* searches = registry.GetCounter("hom.searches");
  static obs::Counter* candidates =
      registry.GetCounter("hom.candidates_tried");
  static obs::Counter* backtracks_counter =
      registry.GetCounter("hom.backtracks");
  static obs::Counter* results_counter = registry.GetCounter("hom.results");
  static obs::Counter* truncations = registry.GetCounter("hom.truncated");
  searches->Add(1);
  candidates->Add(candidates_tried);
  backtracks_counter->Add(backtracks);
  results_counter->Add(results);
  if (truncated) truncations->Add(1);
}

// Backtracking matcher over a greedily chosen atom ordering, run in code
// space over the target's columnar snapshot: the pattern is compiled once
// into dictionary codes and slot indices, candidate selection walks
// per-(position, code) postings lists, and unification compares uint32
// codes instead of Terms — an index-nested-loop join that never touches
// Atom storage until results are decoded. Postings lists hold local rows
// in insertion order, so enumeration order is a function of the target's
// insertion order alone (docs/STORAGE.md).
class ColumnarMatcher {
 public:
  ColumnarMatcher(const std::vector<Atom>& pattern, const Instance& target,
                  const HomSearchOptions& options,
                  const std::function<bool(const Substitution&)>& callback)
      : pattern_(pattern),
        columnar_(target.Columnar()),
        options_(options),
        callback_(callback) {
    Compile();
  }

  void Run() {
    if (!SeedFixed()) {
      FlushCounters();
      FlushStats();
      return;
    }
    order_ = ChooseOrder();
    BuildDepthSlots();
    Recurse(0);
    FlushCounters();
    FlushStats();
  }

  // Parallel-driver entry points. Both run quiet: no counter flush or
  // telemetry from this matcher; the driver aggregates across chunks so
  // the whole fan-out still reads as one logical search.
  //
  // Seeds fixed bindings, fixes the atom order, and copies out the root
  // candidate list Recurse(0) would scan. False when a fixed binding is
  // inadmissible (the search has no results). The root list holds
  // *local* rows of the root relation — opaque to the driver, which only
  // slices and hands them back.
  bool PlanRoot(std::vector<uint32_t>* roots) {
    quiet_ = true;
    if (!SeedFixed()) return false;
    order_ = ChooseOrder();
    *roots = *CandidatesFor(0, &root_indexed_);
    root_relation_ = compiled_[order_[0]].rel;
    return true;
  }

  // Explores only the given slice of root candidates (a contiguous run
  // of PlanRoot's list, so slice-order concatenation across chunks
  // reproduces the sequential enumeration order).
  void RunChunk(const std::vector<uint32_t>& root_slice) {
    quiet_ = true;
    if (!SeedFixed()) return;
    order_ = ChooseOrder();
    BuildDepthSlots();
    root_slice_ = &root_slice;
    Recurse(0);
  }

  uint64_t candidates_tried() const { return candidates_tried_; }
  uint64_t backtracks() const { return backtracks_; }
  size_t results() const { return results_; }
  bool truncated() const { return truncated_; }

  // Root-list access-path facts from PlanRoot (stats attribution: the
  // driver records the list acquisition exactly once, since every chunk
  // scans a slice of the same list).
  RelationId root_relation() const { return root_relation_; }
  bool root_indexed() const { return root_indexed_; }

  // Chunk mode: hands the per-relation access rows accumulated during
  // RunChunk to the driver, which merges chunks in slice order and
  // reports the fan-out as one logical search.
  obs::stats::SearchStats TakeRelationStats() { return std::move(stats_); }

 private:
  // Unbound slot sentinel; dictionary codes are dense and synthetic
  // codes extend them upward, so no real code collides with it.
  static constexpr uint32_t kUnbound = TermDictionary::kNoCode;

  struct ArgRef {
    bool is_slot;    // true: value is a slot index; false: a code
    uint32_t value;
  };
  struct CompiledAtom {
    RelationId rel = 0;
    uint32_t arity = 0;
    const ColumnarRelation* crel = nullptr;  // null when rel is empty
    std::vector<ArgRef> args;
  };

  bool IsPlaceholder(Term t) const {
    return t.is_variable() || (options_.map_nulls && t.is_null());
  }

  uint32_t SlotFor(Term t) {
    auto [it, inserted] =
        slot_of_.try_emplace(t, static_cast<uint32_t>(slot_terms_.size()));
    if (inserted) slot_terms_.push_back(t);
    return it->second;
  }

  // Code for a term that must compare against target codes: the
  // dictionary code when the term occurs in the target, else a fresh
  // synthetic code past the dictionary (distinct per distinct term, so
  // equality, injectivity, and fixed-seed semantics are preserved; a
  // synthetic code matches no stored tuple, exactly like a term absent
  // from the target).
  uint32_t CodeFor(Term t) {
    uint32_t code = columnar_.dict().Find(t);
    if (code != TermDictionary::kNoCode) return code;
    auto [it, inserted] = extra_of_.try_emplace(
        t,
        static_cast<uint32_t>(columnar_.dict().size() + extra_terms_.size()));
    if (inserted) extra_terms_.push_back(t);
    return it->second;
  }

  Term TermForCode(uint32_t code) const {
    const size_t n = columnar_.dict().size();
    return code < n ? columnar_.dict().Decode(code) : extra_terms_[code - n];
  }

  void Compile() {
    compiled_.reserve(pattern_.size());
    for (const Atom& a : pattern_) {
      CompiledAtom c;
      c.rel = a.relation();
      c.arity = a.arity();
      c.crel = columnar_.Relation(a.relation());
      c.args.reserve(a.arity());
      for (Term t : a.args()) {
        if (IsPlaceholder(t)) {
          c.args.push_back({true, SlotFor(t)});
        } else {
          c.args.push_back({false, CodeFor(t)});
        }
      }
      compiled_.push_back(std::move(c));
    }
    slot_values_.assign(slot_terms_.size(), kUnbound);
  }

  // Seeds bindings from options.fixed for placeholders occurring in the
  // pattern; false when a seed is inadmissible (no results possible).
  bool SeedFixed() {
    for (const Atom& a : pattern_) {
      for (Term t : a.args()) {
        if (!IsPlaceholder(t)) continue;
        const uint32_t slot = slot_of_.at(t);
        if (slot_values_[slot] != kUnbound) continue;
        if (options_.fixed.Binds(t) &&
            !TryBindSlot(slot, CodeFor(options_.fixed.Apply(t)))) {
          return false;
        }
      }
    }
    return true;
  }

  // Local tallies are kept unconditionally (an increment is noise next to
  // the per-candidate work) and flushed to the registry only when
  // observability is on, so the disabled path stays counter-free.
  void FlushCounters() const {
    FlushSearchCounters(candidates_tried_, backtracks_, results_,
                        truncated_);
  }

  // Per-depth slots into stats_.relations, resolved once per search so
  // the inner loop pays plain increments when stats are on (std::map
  // nodes are stable, so the pointers survive later insertions).
  void BuildDepthSlots() {
    if (!stats_on_) return;
    depth_slots_.resize(order_.size());
    for (size_t d = 0; d < order_.size(); ++d) {
      depth_slots_[d] = &stats_.relations[compiled_[order_[d]].rel];
    }
  }

  // One logical (non-chunked) search's access-path stats: merged into
  // the thread's sink and the `stats.*` registry families.
  void FlushStats() {
    if (!stats_on_ || quiet_) return;
    stats_.searches = 1;
    stats_.candidates_tried = candidates_tried_;
    stats_.backtracks = backtracks_;
    stats_.results = results_;
    stats_.truncated = truncated_ ? 1 : 0;
    obs::stats::RecordSearch(stats_);
  }

  // Rare-path pulse: progress work units and, even less often, a search
  // milestone event. Called every 2^16 candidates. Chunk matchers keep
  // the progress pulse (the watchdog must see parallel work) but skip
  // the milestone — a per-chunk candidate count is not the sequential
  // search's cadence, and emitting it would make event streams depend
  // on the chunking.
  void Pulse() const {
    if (obs::ProgressActive()) obs::NoteWork(1u << 16);
    if (!quiet_ && obs::EventsEnabled() &&
        (candidates_tried_ & ((1u << 20) - 1)) == 0) {
      obs::Emit("hom.milestone",
                {{"candidates", static_cast<int64_t>(candidates_tried_)},
                 {"results", static_cast<int64_t>(results_)}});
    }
  }

  // Binds slot -> image if admissible; returns whether it bound.
  bool TryBindSlot(uint32_t slot, uint32_t image) {
    if (options_.nulls_to_nulls && slot_terms_[slot].is_null() &&
        !TermForCode(image).is_null()) {
      return false;
    }
    if (options_.injective && used_codes_.count(image) > 0) return false;
    if (options_.injective) used_codes_.insert(image);
    slot_values_[slot] = image;
    return true;
  }

  void UnbindSlot(uint32_t slot) {
    if (options_.injective) used_codes_.erase(slot_values_[slot]);
    slot_values_[slot] = kUnbound;
  }

  // Greedy static atom order: repeatedly pick the atom with the most
  // arguments that are fixed codes or already-bound slots (fixed seeds
  // count as bound). The greedy selection is quadratic in the pattern
  // size, so very large patterns (e.g. whole-instance containment checks)
  // keep insertion order -- their atoms are mostly ground and candidate
  // lists are index-driven anyway. Chunk matchers seed the same slots as
  // the sequential search, so every chunk explores in the same order.
  std::vector<size_t> ChooseOrder() const {
    std::vector<size_t> order(compiled_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    if (compiled_.size() > 192) return order;
    order.clear();
    std::vector<bool> seen(slot_values_.size());
    for (size_t slot = 0; slot < seen.size(); ++slot) {
      seen[slot] = slot_values_[slot] != kUnbound;
    }
    std::vector<bool> chosen(compiled_.size(), false);
    for (size_t step = 0; step < compiled_.size(); ++step) {
      size_t best = 0;
      int best_score = -1;
      for (size_t i = 0; i < compiled_.size(); ++i) {
        if (chosen[i]) continue;
        int score = 0;
        for (const ArgRef arg : compiled_[i].args) {
          if (!arg.is_slot || seen[arg.value]) ++score;
        }
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      chosen[best] = true;
      order.push_back(best);
      for (const ArgRef arg : compiled_[best].args) {
        if (arg.is_slot) seen[arg.value] = true;
      }
    }
    return order;
  }

  // Candidate rows for the atom at order_[depth]: the tightest postings
  // list among bound argument positions (every bound position is probed),
  // else the whole relation. *indexed reports which access path won.
  const std::vector<uint32_t>* CandidatesFor(size_t depth,
                                             bool* indexed) const {
    const CompiledAtom& atom = compiled_[order_[depth]];
    const std::vector<uint32_t>* candidates = nullptr;
    for (uint32_t pos = 0; pos < atom.arity; ++pos) {
      const ArgRef arg = atom.args[pos];
      const uint32_t image =
          arg.is_slot ? slot_values_[arg.value] : arg.value;
      if (image == kUnbound) continue;
      const std::vector<uint32_t>& list =
          columnar_.Probe(atom.rel, pos, image);
      if (candidates == nullptr || list.size() < candidates->size()) {
        candidates = &list;
      }
    }
    *indexed = candidates != nullptr;
    if (candidates == nullptr) candidates = &columnar_.Rows(atom.rel);
    return candidates;
  }

  void Recurse(size_t depth) {
    if (stopped_) return;
    if (depth == compiled_.size()) {
      Substitution result;
      for (size_t i = 0; i < slot_terms_.size(); ++i) {
        result.Set(slot_terms_[i], TermForCode(slot_values_[i]));
      }
      ++results_;
      if (!callback_(result)) {
        stopped_ = true;  // caller asked to stop; not a truncation
      } else if (results_ >= options_.max_results) {
        // Silent cutoff made visible: the caller sees max_results homs
        // and has no way to tell "that's all" from "that's the cap".
        stopped_ = true;
        truncated_ = true;
      }
      return;
    }
    const CompiledAtom& atom = compiled_[order_[depth]];
    const std::vector<uint32_t>* candidates;
    if (depth == 0 && root_slice_ != nullptr) {
      candidates = root_slice_;
      // Chunk mode: the driver records the root list acquisition once;
      // each chunk accounts only the candidates its slice feeds it, so
      // slice-order merging reproduces the sequential scan counts.
      if (stats_on_) depth_slots_[0]->tuples_scanned += candidates->size();
    } else {
      bool indexed = false;
      candidates = CandidatesFor(depth, &indexed);
      if (stats_on_) {
        obs::stats::RelationAccess* slot = depth_slots_[depth];
        ++slot->lists;
        if (indexed) ++slot->indexed_lists;
        slot->tuples_scanned += candidates->size();
      }
    }

    std::vector<uint32_t> newly_bound;
    for (uint32_t row : *candidates) {
      if (atom.crel->arity(row) != atom.arity) continue;
      ++candidates_tried_;
      if ((candidates_tried_ & 0xFFFF) == 0) {
        Pulse();
        // Deadline/cancellation at pulse cadence. Stopping here is a
        // truncation: everything emitted so far is a genuine hom, some
        // may be missing — exactly the max_results contract.
        if (options_.context != nullptr &&
            options_.context->Check() != resilience::StopCause::kNone) {
          stopped_ = true;
          truncated_ = true;
          return;
        }
        // Shared cross-search work budget: draw the next batch of
        // candidates; a dry pool also truncates.
        if (options_.shared_budget != nullptr &&
            !options_.shared_budget->TryConsume(
                obs::SharedBudget::kBatch)) {
          stopped_ = true;
          truncated_ = true;
          return;
        }
      }
      newly_bound.clear();
      bool ok = true;
      for (uint32_t pos = 0; pos < atom.arity && ok; ++pos) {
        const ArgRef arg = atom.args[pos];
        const uint32_t tuple_code = atom.crel->code(pos, row);
        if (!arg.is_slot) {
          ok = (arg.value == tuple_code);
        } else {
          const uint32_t image = slot_values_[arg.value];
          if (image != kUnbound) {
            ok = (image == tuple_code);
          } else if (TryBindSlot(arg.value, tuple_code)) {
            newly_bound.push_back(arg.value);
          } else {
            ok = false;
          }
        }
      }
      if (ok) {
        if (stats_on_) ++depth_slots_[depth]->tuples_matched;
        Recurse(depth + 1);
      } else {
        ++backtracks_;
      }
      for (auto it = newly_bound.rbegin(); it != newly_bound.rend(); ++it) {
        UnbindSlot(*it);
      }
      if (stopped_) return;
    }
  }

  const std::vector<Atom>& pattern_;
  const ColumnarInstance& columnar_;
  const HomSearchOptions& options_;
  const std::function<bool(const Substitution&)>& callback_;

  // Compiled pattern: slots are distinct placeholders in first-occurrence
  // order; fixed args are pre-encoded.
  std::vector<CompiledAtom> compiled_;
  std::vector<Term> slot_terms_;
  std::unordered_map<Term, uint32_t, TermHash> slot_of_;
  std::vector<Term> extra_terms_;
  std::unordered_map<Term, uint32_t, TermHash> extra_of_;
  std::vector<uint32_t> slot_values_;

  std::vector<size_t> order_;
  const std::vector<uint32_t>* root_slice_ = nullptr;
  bool quiet_ = false;  // chunk mode: driver owns telemetry
  // Access-path stats: the gate is sampled once per search (one relaxed
  // load), so the disabled inner loop pays a predictable branch only.
  const bool stats_on_ = obs::stats::Enabled();
  obs::stats::SearchStats stats_;
  std::vector<obs::stats::RelationAccess*> depth_slots_;
  RelationId root_relation_ = 0;
  bool root_indexed_ = false;
  std::unordered_set<uint32_t> used_codes_;
  size_t results_ = 0;
  uint64_t candidates_tried_ = 0;
  uint64_t backtracks_ = 0;
  bool stopped_ = false;
  bool truncated_ = false;  // stopped by max_results, not by the caller
};

// Fans the search out over contiguous slices of the root candidate
// list. Each chunk is a full sequential search below its slice (same
// atom order, same per-chunk max_results cap), so concatenating chunk
// results in slice order and trimming to max_results reproduces the
// sequential result list byte for byte — regardless of the chunk count,
// which is why it may depend on the thread count. Only the internal
// work tallies (candidates tried past a cap) can differ, and only on
// truncated searches.
HomSearchResult SearchParallel(const std::vector<Atom>& pattern,
                               const Instance& target,
                               const HomSearchOptions& options,
                               const std::vector<uint32_t>& roots,
                               RelationId root_relation, bool root_indexed) {
  util::ThreadPool* pool = options.pool;
  const size_t num_chunks =
      std::min(roots.size(), (pool->num_threads() + 1) * 4);
  std::vector<std::vector<uint32_t>> slices(num_chunks);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t lo = roots.size() * c / num_chunks;
    const size_t hi = roots.size() * (c + 1) / num_chunks;
    slices[c].assign(roots.begin() + lo, roots.begin() + hi);
  }

  struct ChunkResult {
    std::vector<Substitution> homs;
    uint64_t candidates_tried = 0;
    uint64_t backtracks = 0;
    bool truncated = false;
    obs::stats::SearchStats stats;  // per-relation rows only
  };
  std::vector<ChunkResult> chunks(num_chunks);
  target.WarmColumnar();  // concurrent readers need the snapshot built
  {
    util::TaskGroup group(pool, options.context);
    for (size_t c = 0; c < num_chunks; ++c) {
      group.Run([&pattern, &target, &options, &slices, &chunks, c] {
        ChunkResult& chunk = chunks[c];
        const std::function<bool(const Substitution&)> collect =
            [&chunk](const Substitution& h) {
              chunk.homs.push_back(h);
              return true;
            };
        ColumnarMatcher matcher(pattern, target, options, collect);
        matcher.RunChunk(slices[c]);
        chunk.candidates_tried = matcher.candidates_tried();
        chunk.backtracks = matcher.backtracks();
        chunk.truncated = matcher.truncated();
        chunk.stats = matcher.TakeRelationStats();
      });
    }
  }

  HomSearchResult out;
  uint64_t candidates_tried = 0;
  uint64_t backtracks = 0;
  for (ChunkResult& chunk : chunks) {
    candidates_tried += chunk.candidates_tried;
    backtracks += chunk.backtracks;
    out.truncated = out.truncated || chunk.truncated;
    if (out.homs.size() < options.max_results) {
      const size_t room = options.max_results - out.homs.size();
      const size_t take = std::min(room, chunk.homs.size());
      out.homs.insert(out.homs.end(),
                      std::make_move_iterator(chunk.homs.begin()),
                      std::make_move_iterator(chunk.homs.begin() + take));
    }
  }
  if (out.homs.size() >= options.max_results) out.truncated = true;
  FlushSearchCounters(candidates_tried, backtracks, out.homs.size(),
                      out.truncated);
  if (obs::stats::Enabled()) {
    // Merge chunk access rows in slice order and report them as one
    // logical search; the root-list acquisition (probed once by
    // PlanRoot, scanned slice-wise by the chunks) is recorded here
    // exactly once, so the counts match the sequential search's on
    // complete (non-truncated) searches regardless of chunking.
    obs::stats::SearchStats agg;
    for (ChunkResult& chunk : chunks) agg.Merge(chunk.stats);
    agg.searches = 1;
    agg.candidates_tried = candidates_tried;
    agg.backtracks = backtracks;
    agg.results = out.homs.size();
    agg.truncated = out.truncated ? 1 : 0;
    obs::stats::RelationAccess& root_access = agg.relations[root_relation];
    ++root_access.lists;
    if (root_indexed) ++root_access.indexed_lists;
    obs::stats::RecordSearch(agg);
  }
  return out;
}

}  // namespace

void ForEachHomomorphism(
    const std::vector<Atom>& pattern, const Instance& target,
    const HomSearchOptions& options,
    const std::function<bool(const Substitution&)>& callback) {
  obs::alloc::AllocScope alloc_scope("hom_search");
  ColumnarMatcher(pattern, target, options, callback).Run();
}

// Probes the root candidate list, fans out when it is large enough, else
// runs the plain sequential search.
HomSearchResult FindHomomorphismsChecked(const std::vector<Atom>& pattern,
                                         const Instance& target,
                                         const HomSearchOptions& options) {
  obs::alloc::AllocScope alloc_scope("hom_search");
  const std::function<bool(const Substitution&)> no_op =
      [](const Substitution&) { return true; };
  if (options.pool != nullptr && options.pool->num_threads() > 0 &&
      !pattern.empty()) {
    // Probe: seed + order + root candidate list, no search yet.
    std::vector<uint32_t> roots;
    ColumnarMatcher probe(pattern, target, options, no_op);
    if (probe.PlanRoot(&roots) &&
        roots.size() >= options.parallel_min_candidates) {
      return SearchParallel(pattern, target, options, roots,
                            probe.root_relation(), probe.root_indexed());
    }
    // Conflicting seed or a small root set: fall through to the
    // sequential search (which redoes the cheap seeding).
  }
  HomSearchResult out;
  const std::function<bool(const Substitution&)> collect =
      [&out](const Substitution& h) {
        out.homs.push_back(h);
        return true;
      };
  ColumnarMatcher matcher(pattern, target, options, collect);
  matcher.Run();
  out.truncated = matcher.truncated();
  return out;
}

std::vector<Substitution> FindHomomorphisms(const std::vector<Atom>& pattern,
                                            const Instance& target,
                                            const HomSearchOptions& options) {
  return FindHomomorphismsChecked(pattern, target, options).homs;
}

std::optional<Substitution> FindHomomorphism(
    const std::vector<Atom>& pattern, const Instance& target,
    const HomSearchOptions& options) {
  std::optional<Substitution> out;
  ForEachHomomorphism(pattern, target, options,
                      [&out](const Substitution& h) {
                        out = h;
                        return false;
                      });
  return out;
}

bool HasInstanceHomomorphism(const Instance& from, const Instance& to) {
  return FindInstanceHomomorphism(from, to).has_value();
}

std::optional<Substitution> FindInstanceHomomorphism(const Instance& from,
                                                     const Instance& to) {
  HomSearchOptions options;
  options.map_nulls = true;
  return FindHomomorphism(from.atoms(), to, options);
}

std::optional<Substitution> FindIsomorphism(const Instance& a,
                                            const Instance& b) {
  if (a.size() != b.size()) return std::nullopt;
  // Constants are fixed and nulls map to nulls, so every ground atom of
  // `a` maps to itself: most non-isomorphic pairs (e.g. the recovery
  // dedup's) fail here without a search.
  for (const Atom& atom : a.atoms()) {
    if (atom.IsGround() && !b.Contains(atom)) return std::nullopt;
  }
  HomSearchOptions options;
  options.map_nulls = true;
  options.injective = true;
  options.nulls_to_nulls = true;
  std::optional<Substitution> h = FindHomomorphism(a.atoms(), b, options);
  if (!h.has_value()) return std::nullopt;
  // Injective on terms => no atom merging, so |h(a)| = |a| = |b| and
  // h(a) subset of b implies h(a) = b.
  return h;
}

bool AreIsomorphic(const Instance& a, const Instance& b) {
  return FindIsomorphism(a, b).has_value();
}

}  // namespace dxrec
