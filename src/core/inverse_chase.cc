#include "core/inverse_chase.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "base/fresh.h"
#include "chase/chase.h"
#include "chase/homomorphism.h"
#include "chase/instance_core.h"
#include "core/recovery.h"
#include "obs/alloc.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "relational/instance_ops.h"
#include "resilience/execution_context.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace dxrec {

namespace {

// Homomorphisms g : chased -> target that are the identity on dom(target).
// Constants are fixed automatically; target-owned nulls are pre-pinned.
// With a pool, large candidate sets fan out over root slices; the result
// list is identical either way.
HomSearchResult BackHomomorphisms(const Instance& chased,
                                  const Instance& target, size_t max_results,
                                  const resilience::ExecutionContext* context,
                                  util::ThreadPool* pool,
                                  size_t parallel_min_candidates,
                                  obs::SharedBudget* shared_budget) {
  HomSearchOptions options;
  options.map_nulls = true;
  options.max_results = max_results;
  options.context = context;
  options.pool = pool;
  options.parallel_min_candidates = parallel_min_candidates;
  options.shared_budget = shared_budget;
  for (Term t : target.TermsOfKind(TermKind::kNull)) {
    options.fixed.Set(t, t);
  }
  return FindHomomorphismsChecked(chased.atoms(), target, options);
}

// A candidate's canonical atoms (CanonicalAtoms) and their hash: equal
// for two candidates iff their CanonicalStrings are. Step 7 and merge
// dedup on it.
struct CandidateKey {
  std::vector<Atom> atoms;
  size_t hash = 0;
};

CandidateKey KeyOf(std::vector<Atom> atoms) {
  CandidateKey key{CanonicalAtoms(std::move(atoms)), 0};
  key.hash = key.atoms.size();
  for (const Atom& a : key.atoms) {
    key.hash ^= AtomHash()(a) + 0x9e3779b9 + (key.hash << 6) +
                (key.hash >> 2);
  }
  return key;
}

struct CandidateKeyHash {
  size_t operator()(const CandidateKey* key) const { return key->hash; }
};

struct CandidateKeyEq {
  bool operator()(const CandidateKey* a, const CandidateKey* b) const {
    return a->hash == b->hash && a->atoms == b->atoms;
  }
};

// A verified recovery candidate produced from one (cover, g) pair.
struct VerifiedCandidate {
  size_t cover_index = 0;
  size_t g_index = 0;
  // Empty for a duplicate of an earlier candidate of the same cover: it
  // carries only its key, on which merge always drops it.
  Instance recovery;
  // Set when step 7 keyed the candidate; merge keys the others itself.
  std::optional<CandidateKey> key;
  std::optional<RecoveryExplanation> explanation;
};

// Why a cover's g-homomorphism enumeration stopped early, if it did.
enum class GHomTruncation { kNone, kPerCoverCap, kSharedBudget };

// Per-cover statistics (merged into InverseChaseStats).
struct CoverOutcome {
  // First deadline/cancellation/injected failure hit while processing
  // this cover (Ok = clean). Candidates verified before the trip are kept.
  Status interrupt;
  bool passed_sub = false;
  // Set when the g-hom search stopped before exhausting the space: this
  // cover's candidate set is a lower bound, which exact mode must treat
  // as a budget failure rather than a complete enumeration.
  GHomTruncation truncation = GHomTruncation::kNone;
  size_t num_g_homs = 0;
  size_t num_candidates = 0;
  size_t num_rejected = 0;
  size_t num_unverified = 0;
  std::vector<VerifiedCandidate> candidates;
  // Steps 4-7's phase wall times, always recorded: the merge sums them
  // into InverseChaseStats. The access-path attribution is empty unless
  // stats are enabled; it joins the RunStats tree in cover-index order.
  obs::stats::CoverStats stats;
};

// Runs Def. 9's steps 4-7 for one covering. Thread-safe given a warmed
// target index: all mutated state is local or the atomic null counter.
// `pool` (may be null) enables the within-cover fan-outs: the g-hom
// search over root slices, candidate building over g ranges and
// verification over ranges of distinct candidates — all merge in
// deterministic order, so a cover's outcome does not depend on where its
// pieces ran. `shared_budget` (may be null) is the
// cross-cover work pool of options.max_cover_work.
CoverOutcome ProcessCover(const DependencySet& sigma,
                          const Instance& target,
                          const std::vector<HeadHom>& homs,
                          const Cover& cover, size_t cover_index,
                          const std::vector<SubsumptionConstraint>& sub,
                          const InverseChaseOptions& options,
                          util::ThreadPool* pool,
                          obs::SharedBudget* shared_budget) {
  CoverOutcome outcome;
  outcome.interrupt = resilience::CheckPoint(
      options.context, "inverse_chase.cover", "covers");
  if (!outcome.interrupt.ok()) {
    if (obs::ProgressActive()) obs::NoteCoverDone();
    return outcome;
  }
  NullSource* nulls = &FreshNulls();

  const bool stats_on = obs::stats::Enabled();
  obs::stats::CoverStats& cstats = outcome.stats;
  cstats.cover_index = cover_index;
  cstats.cover_size = cover.size();
  // Cover-thread allocation delta (step-7 slices running on other pool
  // threads are not included); 0 unless obs::alloc is on.
  int64_t alloc_before = 0;
  if (stats_on && obs::alloc::Enabled()) {
    alloc_before = obs::alloc::Snapshot().allocated;
  }

  // Per-cover span: on worker threads this is a root on that thread's
  // timeline, so traces remain well-nested under num_threads > 1.
  obs::Span cover_span("cover");
  cover_span.AddArg("index", static_cast<int64_t>(cover_index));
  cover_span.AddArg("size", static_cast<int64_t>(cover.size()));

  std::vector<HeadHom> h_set;
  h_set.reserve(cover.size());
  for (size_t idx : cover) h_set.push_back(homs[idx]);

  if (options.use_subsumption_filter) {
    size_t failing = 0;
    if (!ModelsAll(h_set, sub, sigma, &failing)) {
      cover_span.AddArg("passed_sub", 0);
      if (obs::EventsEnabled()) {
        obs::Emit("sub.verdict",
                  {{"cover", static_cast<int64_t>(cover_index)},
                   {"constraint", static_cast<int64_t>(failing)},
                   {"passed", 0}});
        obs::Emit("cover.rejected",
                  {{"cover", static_cast<int64_t>(cover_index)},
                   {"size", static_cast<int64_t>(cover.size())}},
                  {{"reason", "sub_filter"}});
      }
      if (obs::ProgressActive()) obs::NoteCoverDone();
      return outcome;
    }
    if (obs::EventsEnabled() && !sub.empty()) {
      obs::Emit("sub.verdict", {{"cover", static_cast<int64_t>(cover_index)},
                                {"passed", 1}});
    }
  }
  outcome.passed_sub = true;
  cstats.passed_sub = true;
  if (obs::EventsEnabled()) {
    obs::Emit("cover.accepted", {{"cover", static_cast<int64_t>(cover_index)},
                                 {"size", static_cast<int64_t>(cover.size())}});
  }

  Stopwatch phase_sw;

  // 4. I_H = Chase_H(Sigma^{-1}, J); per-hom atom sets are kept when
  // provenance is requested.
  Instance source;
  std::vector<Instance> per_hom_sources;
  {
    obs::Span span("step4_reverse_chase");
    for (const HeadHom& h : h_set) {
      Instance atoms = SourceAtomsFor(sigma, h, nulls);
      if (obs::EventsEnabled()) {
        obs::Emit("rchase.trigger",
                  {{"cover", static_cast<int64_t>(cover_index)},
                   {"tgd", static_cast<int64_t>(h.tgd)},
                   {"atoms", static_cast<int64_t>(atoms.size())}});
      }
      if (stats_on) {
        // The reverse chase fires Sigma^{-1} once per cover hom; there
        // is no trigger *search*, so tested == fired by construction.
        cstats.reverse_chase.EnsureDeps(sigma.size());
        obs::stats::DependencyStats& dep = cstats.reverse_chase.deps[h.tgd];
        ++dep.triggers_tested;
        ++dep.triggers_fired;
        dep.tuples_added += atoms.size();
      }
      source.AddAll(atoms);
      if (options.explain) per_hom_sources.push_back(std::move(atoms));
    }
    if (stats_on) {
      cstats.reverse_chase.rounds = 1;
      cstats.reverse_chase.tuples_added = source.size();
      cstats.reverse_chase.round_deltas.push_back(source.size());
    }
    cstats.source_atoms = source.size();
    span.AddArg("source_atoms", static_cast<int64_t>(source.size()));
  }
  cstats.seconds_reverse = phase_sw.ElapsedSeconds();
  phase_sw.Reset();

  // 5. J_H = Chase(Sigma, I_H).
  Instance chased;
  {
    obs::Span span("step5_forward_chase");
    obs::stats::ScopedChase chase_scope(stats_on ? &cstats.forward_chase
                                                 : nullptr);
    chased = Chase(sigma, source, nulls, options.context);
    cstats.chased_atoms = chased.size();
    span.AddArg("chased_atoms", static_cast<int64_t>(chased.size()));
  }
  cstats.seconds_forward = phase_sw.ElapsedSeconds();
  phase_sw.Reset();

  // 6. g : J_H -> J, identity on dom(J).
  std::vector<Substitution> gs;
  {
    obs::Span span("step6_g_hom_search");
    obs::stats::ScopedSearch g_scope(stats_on ? &cstats.g_hom : nullptr);
    HomSearchResult search =
        BackHomomorphisms(chased, target, options.max_g_homs_per_cover,
                          options.context, pool,
                          options.parallel_min_candidates, shared_budget);
    gs = std::move(search.homs);
    if (search.truncated) {
      // Attribute the early stop: a tripped context is an interrupt (it
      // outranks budget truncation at the merge), a dry shared pool is
      // the cross-cover budget, anything else is the per-cover cap.
      Status trip = resilience::CheckPoint(options.context,
                                           "inverse_chase.ghom", "covers");
      if (!trip.ok()) {
        outcome.interrupt = std::move(trip);
      } else if (shared_budget != nullptr && shared_budget->Dry()) {
        outcome.truncation = GHomTruncation::kSharedBudget;
      } else {
        outcome.truncation = GHomTruncation::kPerCoverCap;
      }
    }
    span.AddArg("g_homs", static_cast<int64_t>(gs.size()));
    if (obs::EventsEnabled()) {
      obs::Emit("ghom.search",
                {{"cover", static_cast<int64_t>(cover_index)},
                 {"g_homs", static_cast<int64_t>(gs.size())},
                 {"truncated", search.truncated ? 1 : 0}});
    }
  }
  cstats.seconds_ghom = phase_sw.ElapsedSeconds();
  phase_sw.Reset();
  outcome.num_g_homs = gs.size();

  // 7. Emit g(I_H) -- after verifying the recovery condition. The
  // g-collapse can create fresh triggers whose heads escape J, so a
  // candidate is kept only if J is a minimal solution w.r.t. it (exact
  // for ground J; for targets with nulls the brute-force justification
  // test is the fallback). Completeness is unaffected: for any recovery
  // I*, the cover realized by I* and its induced g yield a candidate
  // contained in I* that passes this check.
  //
  // Distinct g often collapse to the same g(I_H). Over a ground target a
  // verdict depends on the candidate only up to null labels, so each
  // distinct canonical key is verified once and its duplicates inherit
  // the verdict (and still count, and emit events, one by one). With
  // target nulls a relabelling can trade a target null for a fresh one,
  // so there every candidate is verified on its own.
  const bool target_ground = target.IsGround();
  const bool memo = target_ground && gs.size() > 1;
  obs::Span verify_span("step7_verify_emit");

  // Runs `body(i)` for i in [0, n), in contiguous slices that may run on
  // pool threads; a slice stops at its first tripped checkpoint. Slices
  // merge in index order, so chunking never changes what is computed.
  struct VerifySlice {
    Status interrupt;
    // Searches run in this slice (coring, minimality/justification
    // checks); merged into cstats.verify in slice order.
    obs::stats::SearchStats search;
  };
  auto for_slices = [&](size_t n, const std::function<void(size_t)>& body) {
    auto run = [&](size_t lo, size_t hi) {
      VerifySlice slice;
      // The slice runs wholly on one thread, so a slice-local sink catches
      // every search below it even on pool workers.
      obs::stats::ScopedSearch scope(stats_on ? &slice.search : nullptr);
      for (size_t i = lo; i < hi; ++i) {
        slice.interrupt = resilience::CheckPoint(
            options.context, "inverse_chase.verify", "covers");
        if (!slice.interrupt.ok()) break;
        body(i);
      }
      return slice;
    };
    std::vector<VerifySlice> slices;
    if (pool != nullptr && n >= 8) {
      // E2-shaped workloads put nearly all their work here (one cover,
      // thousands of g), so this inner fan-out is what keeps the pool
      // busy when the cover-level fan-out alone cannot.
      const size_t num_chunks = std::min(n, (pool->num_threads() + 1) * 4);
      slices.resize(num_chunks);
      util::TaskGroup group(pool, options.context);
      for (size_t c = 0; c < num_chunks; ++c) {
        const size_t lo = n * c / num_chunks;
        const size_t hi = n * (c + 1) / num_chunks;
        group.Run([&run, &slices, c, lo, hi] { slices[c] = run(lo, hi); });
      }
      group.Wait();
    } else {
      slices.push_back(run(0, n));
    }
    for (VerifySlice& slice : slices) {
      if (!slice.interrupt.ok() && outcome.interrupt.ok()) {
        outcome.interrupt = std::move(slice.interrupt);
      }
      if (stats_on) cstats.verify.Merge(slice.search);
    }
  };

  // Candidates g(I_H) as atom lists, cored when asked, keyed when
  // memoized. Only the representatives, which are verified, become
  // instances.
  std::vector<std::vector<Atom>> candidates(gs.size());
  std::vector<CandidateKey> keys(memo ? gs.size() : 0);
  std::vector<char> built(gs.size(), 0);
  for_slices(gs.size(), [&](size_t g_index) {
    const Substitution& g = gs[g_index];
    std::vector<Atom> atoms;
    if (options.core_recoveries) {
      Instance recovery = source.Apply(g);
      Instance core = ComputeCore(recovery);
      if (obs::EventsEnabled() && core.size() != recovery.size()) {
        obs::Emit("recovery.cored",
                  {{"cover", static_cast<int64_t>(cover_index)},
                   {"before", static_cast<int64_t>(recovery.size())},
                   {"after", static_cast<int64_t>(core.size())}});
      }
      atoms = core.atoms();
    } else {
      atoms.reserve(source.size());
      for (const Atom& a : source.atoms()) atoms.push_back(a.Apply(g));
    }
    if (memo) keys[g_index] = KeyOf(atoms);
    candidates[g_index] = std::move(atoms);
    built[g_index] = 1;
  });

  // First occurrences, in g order, are the candidates verified.
  std::vector<size_t> representatives;
  std::vector<size_t> representative_of(gs.size());
  {
    std::unordered_map<const CandidateKey*, size_t, CandidateKeyHash,
                       CandidateKeyEq>
        first;
    for (size_t g_index = 0; g_index < gs.size(); ++g_index) {
      if (!built[g_index]) continue;
      if (memo) {
        auto [it, inserted] =
            first.emplace(&keys[g_index], representatives.size());
        representative_of[g_index] = it->second;
        if (!inserted) continue;
      } else {
        representative_of[g_index] = representatives.size();
      }
      representatives.push_back(g_index);
    }
  }

  enum class Verdict : uint8_t { kPending, kRecovery, kRejected, kUnverified };
  std::vector<Verdict> verdicts(representatives.size(), Verdict::kPending);
  std::vector<Instance> recoveries(representatives.size());
  for_slices(representatives.size(), [&](size_t r) {
    Instance& recovery = recoveries[r];
    recovery.AddAll(candidates[representatives[r]]);
    bool is_recovery = IsMinimalSolution(sigma, recovery, target);
    bool unverified = false;
    if (!is_recovery && !target_ground) {
      JustificationOptions justification;
      justification.context = options.context;
      Result<bool> justified =
          IsJustifiedSolution(sigma, recovery, target, justification);
      if (justified.ok()) {
        is_recovery = *justified;
      } else {
        unverified = true;
      }
    }
    verdicts[r] = is_recovery  ? Verdict::kRecovery
                  : unverified ? Verdict::kUnverified
                               : Verdict::kRejected;
  });

  // Every candidate whose verdict is known counts, in g order.
  for (size_t g_index = 0; g_index < gs.size(); ++g_index) {
    if (!built[g_index]) continue;
    const size_t r = representative_of[g_index];
    if (verdicts[r] == Verdict::kPending) continue;
    outcome.num_candidates++;
    if (verdicts[r] != Verdict::kRecovery) {
      outcome.num_rejected++;
      if (verdicts[r] == Verdict::kUnverified) outcome.num_unverified++;
      if (obs::EventsEnabled()) {
        obs::Emit("recovery.rejected",
                  {{"cover", static_cast<int64_t>(cover_index)},
                   {"g", static_cast<int64_t>(g_index)}});
      }
      continue;
    }
    VerifiedCandidate candidate;
    candidate.cover_index = cover_index;
    candidate.g_index = g_index;
    if (memo) candidate.key = std::move(keys[g_index]);
    if (representatives[r] != g_index) {
      outcome.candidates.push_back(std::move(candidate));
      continue;
    }
    const Instance& recovery = recoveries[r];
    if (options.explain) {
      const Substitution& g = gs[g_index];
      RecoveryExplanation explanation;
      explanation.cover = h_set;
      explanation.g = g;
      for (size_t k = 0; k < per_hom_sources.size(); ++k) {
        Instance covered = h_set[k].CoveredTuples(sigma);
        for (const Atom& raw : per_hom_sources[k].atoms()) {
          Atom mapped = raw.Apply(g);
          // The core step may have folded this atom away.
          if (!recovery.Contains(mapped)) continue;
          explanation.atoms.push_back(
              SourceAtomProvenance{mapped, h_set[k].tgd, covered});
        }
      }
      candidate.explanation = std::move(explanation);
    }
    candidate.recovery = std::move(recoveries[r]);
    outcome.candidates.push_back(std::move(candidate));
  }
  cstats.seconds_verify = phase_sw.ElapsedSeconds();
  verify_span.AddArg("candidates", static_cast<int64_t>(outcome.num_candidates));
  verify_span.AddArg("rejected", static_cast<int64_t>(outcome.num_rejected));
  cover_span.AddArg("passed_sub", 1);
  cover_span.AddArg("emitted",
                    static_cast<int64_t>(outcome.candidates.size()));
  if (stats_on) {
    cstats.g_homs = outcome.num_g_homs;
    cstats.emitted = outcome.candidates.size();
    cstats.rejected = outcome.num_rejected;
    if (obs::alloc::Enabled()) {
      cstats.alloc_bytes = static_cast<uint64_t>(
          obs::alloc::Snapshot().allocated - alloc_before);
    }
  }
  if (obs::ProgressActive()) obs::NoteCoverDone();
  return outcome;
}

}  // namespace

namespace {

std::string Ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", seconds * 1e3);
  return buf;
}

}  // namespace

std::string InverseChaseStats::ToString() const {
  return "homs=" + std::to_string(num_homs) +
         " covers=" + std::to_string(num_covers) +
         " passing_sub=" + std::to_string(num_covers_passing_sub) +
         " yielding=" + std::to_string(num_covers_yielding_recoveries) +
         " g_homs=" + std::to_string(num_g_homs) +
         " truncated=" + std::to_string(num_covers_truncated) +
         " candidates=" + std::to_string(num_recoveries_before_dedup) +
         " rejected=" + std::to_string(num_candidates_rejected) +
         " unverified=" + std::to_string(num_candidates_unverified) +
         " | ms: hom=" + Ms(seconds_hom_enum) +
         " cov=" + Ms(seconds_cover_enum) +
         " sub=" + Ms(seconds_subsumption) +
         " rchase=" + Ms(seconds_reverse_chase) +
         " fchase=" + Ms(seconds_forward_chase) +
         " ghom=" + Ms(seconds_g_hom_search) +
         " verify=" + Ms(seconds_verify) +
         " merge=" + Ms(seconds_merge) +
         " total=" + Ms(seconds_total);
}

std::string RecoveryExplanation::ToString(const DependencySet& sigma) const {
  std::string out = "covering:\n";
  for (const HeadHom& h : cover) {
    out += "  " + h.ToString(sigma) + "\n";
  }
  out += "g = " + g.ToString() + "\n";
  for (const SourceAtomProvenance& p : atoms) {
    out += "  " + p.atom.ToString() + "  <- reverse of tgd " +
           std::to_string(p.tgd) + " (" + sigma.at(p.tgd).ToString() +
           "), justifies " + p.supports.ToString() + "\n";
  }
  return out;
}

namespace {

using SubsumptionSet =
    std::shared_ptr<const std::vector<SubsumptionConstraint>>;

// Step 3's SUB(Sigma): options.sub_cache's set when one is stored, else
// computed here and stored there.
Result<SubsumptionSet> LoadSubsumption(const DependencySet& sigma,
                                       const InverseChaseOptions& options) {
  if (options.sub_cache != nullptr) {
    if (SubsumptionSet stored = options.sub_cache->Get()) return stored;
  }
  SubsumptionOptions sub_options = options.subsumption;
  if (sub_options.context == nullptr) sub_options.context = options.context;
  Result<std::vector<SubsumptionConstraint>> computed =
      ComputeSubsumption(sigma, sub_options);
  if (!computed.ok()) return computed.status();
  SubsumptionSet sub =
      std::make_shared<const std::vector<SubsumptionConstraint>>(
          std::move(*computed));
  if (options.sub_cache != nullptr) {
    sub = options.sub_cache->Put(std::move(sub));
  }
  return sub;
}

// The pipeline body shared by InverseChase (exact: partial output is
// discarded on error) and InverseChasePartial (accumulated output kept,
// the first trip reported through the return status). Interrupt handling
// follows one rule: the first failure in pipeline order wins; in partial
// mode later phases still run over whatever the tripped phase produced
// (each downstream step re-checks the sticky context, so a deadline trip
// costs only cheap checkpoint calls from then on).
Status RunInverseChase(const DependencySet& sigma, const Instance& target,
                       const InverseChaseOptions& options,
                       bool keep_partial, InverseChaseResult* out) {
  InverseChaseResult& result = *out;
  obs::Span pipeline_span("inverse_chase");
  pipeline_span.AddArg("target_atoms", static_cast<int64_t>(target.size()));
  const bool stats_on = obs::stats::Enabled();
  obs::stats::RunStats run_stats;
  run_stats.valid = stats_on;
  run_stats.target_atoms = target.size();
  Stopwatch total_sw;
  Stopwatch phase_sw;
  // Finalize total wall time on every early exit.
  auto fail = [&](Status status) {
    result.stats.seconds_total = total_sw.ElapsedSeconds();
    return status;
  };
  // Publishes a completed run's tree (explain analyze, the report's
  // "stats" section), replacing the previous run's.
  auto record_run = [&] {
    if (!stats_on) return;
    run_stats.recoveries = result.recoveries.size();
    run_stats.seconds_total = result.stats.seconds_total;
    obs::stats::FlushRunToMetrics(run_stats);
    obs::stats::SetLastRun(std::move(run_stats));
  };
  Status interrupt;

  // 1. HOM(Sigma, J).
  obs::SetPhase("hom_enum");
  {
    Status checkpoint = resilience::CheckPoint(
        options.context, "inverse_chase.hom_enum", "hom_enum");
    if (!checkpoint.ok()) return fail(std::move(checkpoint));
  }
  std::vector<HeadHom> homs;
  {
    obs::Span span("step1_hom_enum");
    obs::stats::ScopedSearch hom_scope(stats_on ? &run_stats.hom_enum
                                                : nullptr);
    homs = ComputeHomSet(sigma, target);
    span.AddArg("homs", static_cast<int64_t>(homs.size()));
  }
  run_stats.num_homs = homs.size();
  result.stats.num_homs = homs.size();
  result.stats.seconds_hom_enum = phase_sw.ElapsedSeconds();
  phase_sw.Reset();

  // 2. COV(Sigma, J).
  obs::SetPhase("cover_enum");
  {
    Status checkpoint = resilience::CheckPoint(
        options.context, "inverse_chase.cover_enum", "cover_enum");
    if (!checkpoint.ok()) return fail(std::move(checkpoint));
  }
  std::vector<Cover> covers;
  {
    obs::Span span("step2_cover_enum");
    CoverProblem problem(sigma, target, homs);
    if (!problem.AllTuplesCoverable()) {
      result.stats.seconds_cover_enum = phase_sw.ElapsedSeconds();
      result.stats.seconds_total = total_sw.ElapsedSeconds();
      record_run();
      return Status::Ok();  // some tuple of J is not coverable: invalid.
    }
    CoverOptions cover_options = options.cover;
    if (cover_options.context == nullptr) {
      cover_options.context = options.context;
    }
    Status enumerated =
        options.minimal_covers_only
            ? problem.MinimalCoversInto(cover_options, &covers)
            : problem.AllCoversInto(cover_options, &covers);
    span.AddArg("covers", static_cast<int64_t>(covers.size()));
    if (!enumerated.ok()) {
      // Partial mode still pipelines the covers enumerated before the
      // trip: each is a genuine cover and downstream verification keeps
      // emission sound, so the trip only costs completeness.
      if (!keep_partial) return fail(std::move(enumerated));
      interrupt = std::move(enumerated);
    }
  }
  run_stats.num_covers = covers.size();
  result.stats.num_covers = covers.size();
  result.stats.seconds_cover_enum = phase_sw.ElapsedSeconds();
  phase_sw.Reset();

  // 3. SUB(Sigma), from options.sub_cache when an earlier call stored it.
  obs::SetPhase("subsumption");
  SubsumptionSet sub_set;
  if (options.use_subsumption_filter) {
    Status checkpoint = resilience::CheckPoint(
        options.context, "inverse_chase.subsumption", "subsumption");
    if (!checkpoint.ok() && !keep_partial) {
      return fail(std::move(checkpoint));
    }
    if (checkpoint.ok()) {
      obs::Span span("step3_subsumption");
      Result<SubsumptionSet> computed = LoadSubsumption(sigma, options);
      if (computed.ok()) {
        sub_set = std::move(*computed);
        span.AddArg("constraints", static_cast<int64_t>(sub_set->size()));
      } else if (!keep_partial) {
        return fail(computed.status());
      } else if (interrupt.ok()) {
        // The filter is an optimization (emission stays sound without
        // it); degrade to "no filter" rather than losing the run.
        interrupt = computed.status();
      }
    } else if (interrupt.ok()) {
      interrupt = std::move(checkpoint);
    }
  }
  static const std::vector<SubsumptionConstraint> kNoConstraints;
  const std::vector<SubsumptionConstraint>& sub =
      sub_set != nullptr ? *sub_set : kNoConstraints;
  run_stats.sub_constraints = sub.size();
  result.stats.seconds_subsumption = phase_sw.ElapsedSeconds();
  phase_sw.Reset();

  // Steps 4-7, per cover; optionally across a work-stealing pool (each
  // cover is one task, and ProcessCover opens nested task groups for its
  // own g-hom and verification fan-outs). Outcomes are merged in cover
  // order so the result is deterministic up to null labels.
  obs::SetPhase("covers");
  std::vector<CoverOutcome> outcomes(covers.size());
  obs::SharedBudget cover_work("inverse_chase.cover_work", "covers",
                               options.max_cover_work);
  obs::SharedBudget* shared =
      options.max_cover_work > 0 ? &cover_work : nullptr;
  const size_t num_threads = options.num_threads == 0
                                 ? util::ThreadPool::HardwareThreads()
                                 : options.num_threads;
  util::ThreadPool* pool = options.pool;
  std::unique_ptr<util::ThreadPool> transient;
  if (pool == nullptr && num_threads > 1 && !covers.empty()) {
    transient = std::make_unique<util::ThreadPool>(num_threads);
    pool = transient.get();
  }
  {
    obs::Span span("steps4_7_covers");
    span.AddArg("covers", static_cast<int64_t>(covers.size()));
    span.AddArg("threads",
                static_cast<int64_t>(pool == nullptr ? 1
                                                     : pool->num_threads()));
    if (pool == nullptr) {
      for (size_t i = 0; i < covers.size(); ++i) {
        outcomes[i] = ProcessCover(sigma, target, homs, covers[i], i, sub,
                                   options, nullptr, shared);
      }
    } else {
      // Concurrent readers need the columnar snapshot pre-built (the
      // lazy build is the only const-path mutation).
      target.WarmColumnar();
      util::TaskGroup group(pool, options.context);
      for (size_t i = 0; i < covers.size(); ++i) {
        group.Run([&sigma, &target, &homs, &covers, &sub, &options,
                   &outcomes, pool, shared, i] {
          outcomes[i] = ProcessCover(sigma, target, homs, covers[i], i,
                                     sub, options, pool, shared);
        });
      }
      group.Wait();
    }
  }
  phase_sw.Reset();

  // First per-cover trip in cover order wins (deterministic in the
  // sequential run). In exact mode it aborts; in partial mode the
  // outcomes already gathered still contribute below.
  for (const CoverOutcome& outcome : outcomes) {
    if (outcome.interrupt.ok()) continue;
    if (!keep_partial) return fail(outcome.interrupt);
    if (interrupt.ok()) interrupt = outcome.interrupt;
    break;
  }

  // Then truncated g-hom enumerations, also first-in-cover-order: those
  // covers' candidate sets are lower bounds, so exact mode fails instead
  // of passing off a capped enumeration as exhaustive, and partial mode
  // reports the budget through its interrupt. The structured error (and
  // its budget.exhausted event) is built once, on this thread.
  Status truncation_status;
  for (const CoverOutcome& outcome : outcomes) {
    if (outcome.truncation == GHomTruncation::kNone) continue;
    result.stats.num_covers_truncated++;
    if (truncation_status.ok()) {
      truncation_status =
          outcome.truncation == GHomTruncation::kSharedBudget
              ? cover_work.Exhausted()
              : obs::BudgetExhausted({"inverse_chase.g_homs",
                                      options.max_g_homs_per_cover,
                                      outcome.num_g_homs, "covers"});
    }
  }
  if (!truncation_status.ok()) {
    if (!keep_partial) return fail(std::move(truncation_status));
    if (interrupt.ok()) interrupt = std::move(truncation_status);
  }

  // Merge, dedup, and enforce the recovery budget.
  obs::SetPhase("merge_dedup");
  obs::Span merge_span("merge_dedup");
  {
    Status checkpoint = resilience::CheckPoint(
        options.context, "inverse_chase.merge", "merge_dedup");
    if (!checkpoint.ok()) {
      if (!keep_partial) return fail(std::move(checkpoint));
      if (interrupt.ok()) interrupt = std::move(checkpoint);
    }
  }
  // Cover stats move out in cover-index order — the same deterministic
  // merge the recoveries get — so the operator tree is byte-identical
  // at any thread count (timings and alloc bytes excepted). The phase
  // times are summed before the move.
  if (stats_on) run_stats.covers.reserve(outcomes.size());
  for (CoverOutcome& outcome : outcomes) {
    if (outcome.passed_sub) result.stats.num_covers_passing_sub++;
    result.stats.seconds_reverse_chase += outcome.stats.seconds_reverse;
    result.stats.seconds_forward_chase += outcome.stats.seconds_forward;
    result.stats.seconds_g_hom_search += outcome.stats.seconds_ghom;
    result.stats.seconds_verify += outcome.stats.seconds_verify;
    result.stats.num_g_homs += outcome.num_g_homs;
    result.stats.num_recoveries_before_dedup += outcome.num_candidates;
    result.stats.num_candidates_rejected += outcome.num_rejected;
    result.stats.num_candidates_unverified += outcome.num_unverified;
    if (!outcome.candidates.empty()) {
      result.stats.num_covers_yielding_recoveries++;
    }
    if (stats_on) run_stats.covers.push_back(std::move(outcome.stats));
  }
  run_stats.num_covers_passing_sub = result.stats.num_covers_passing_sub;
  // Exact dedup on the candidates' canonical keys: step 7's where it
  // computed them, computed here otherwise, and skipped for a lone
  // candidate, which has nothing to collide with.
  size_t num_verified = 0;
  for (const CoverOutcome& outcome : outcomes) {
    num_verified += outcome.candidates.size();
  }
  std::unordered_set<const CandidateKey*, CandidateKeyHash, CandidateKeyEq>
      seen_exact;
  bool merge_truncated = false;
  for (CoverOutcome& outcome : outcomes) {
    for (VerifiedCandidate& candidate : outcome.candidates) {
      if (num_verified > 1 && !candidate.key.has_value()) {
        candidate.key = KeyOf(candidate.recovery.atoms());
      }
      if (num_verified > 1 && !seen_exact.insert(&*candidate.key).second) {
        if (obs::EventsEnabled()) {
          obs::Emit("recovery.deduped",
                    {{"cover", static_cast<int64_t>(candidate.cover_index)}},
                    {{"stage", "exact"}});
        }
        continue;
      }
      if (options.explain && candidate.explanation.has_value()) {
        result.explanations.push_back(std::move(*candidate.explanation));
      }
      if (obs::EventsEnabled()) {
        obs::Emit("recovery.emitted",
                  {{"cover", static_cast<int64_t>(candidate.cover_index)},
                   {"atoms",
                    static_cast<int64_t>(candidate.recovery.size())}});
      }
      result.recoveries.push_back(std::move(candidate.recovery));
      if (result.recoveries.size() > options.max_recoveries) {
        Status full = obs::BudgetExhausted({"inverse_chase.recoveries",
                                            options.max_recoveries,
                                            result.recoveries.size(),
                                            "merge_dedup"});
        if (!keep_partial) return fail(std::move(full));
        // Partial mode respects the cap: drop the overflow candidate
        // (and its explanation) so the prefix honors max_recoveries.
        result.recoveries.pop_back();
        if (options.explain &&
            result.explanations.size() == result.recoveries.size() + 1) {
          result.explanations.pop_back();
        }
        if (interrupt.ok()) interrupt = std::move(full);
        merge_truncated = true;
        break;
      }
    }
    if (merge_truncated) break;
  }

  // Optional isomorphism dedup (CanonicalString already catches most
  // duplicates; this pass removes relabel-resistant ones). Explanations
  // stay aligned by keeping each class's first representative.
  if (options.dedup_isomorphic && result.recoveries.size() > 1) {
    std::vector<Instance> unique;
    std::vector<RecoveryExplanation> unique_explanations;
    for (size_t i = 0; i < result.recoveries.size(); ++i) {
      Instance& candidate = result.recoveries[i];
      bool duplicate = false;
      for (const Instance& kept : unique) {
        if (AreIsomorphic(candidate, kept)) {
          duplicate = true;
          break;
        }
      }
      if (duplicate) {
        if (obs::EventsEnabled()) {
          obs::Emit("recovery.deduped", {}, {{"stage", "isomorphism"}});
        }
        continue;
      }
      unique.push_back(std::move(candidate));
      if (options.explain) {
        unique_explanations.push_back(std::move(result.explanations[i]));
      }
    }
    result.recoveries = std::move(unique);
    result.explanations = std::move(unique_explanations);
  }
  result.stats.seconds_merge = phase_sw.ElapsedSeconds();
  result.stats.seconds_total = total_sw.ElapsedSeconds();
  record_run();
  merge_span.AddArg("recoveries",
                    static_cast<int64_t>(result.recoveries.size()));
  pipeline_span.AddArg("recoveries",
                       static_cast<int64_t>(result.recoveries.size()));
  if (obs::Enabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    static obs::Counter* runs = registry.GetCounter("inverse_chase.runs");
    static obs::Counter* covers_seen =
        registry.GetCounter("inverse_chase.covers");
    static obs::Counter* recoveries =
        registry.GetCounter("inverse_chase.recoveries");
    static obs::Histogram* cover_g_homs =
        registry.GetHistogram("inverse_chase.g_homs_per_cover");
    runs->Add(1);
    covers_seen->Add(result.stats.num_covers);
    recoveries->Add(result.recoveries.size());
    for (const CoverOutcome& outcome : outcomes) {
      if (outcome.passed_sub) cover_g_homs->Record(outcome.num_g_homs);
    }
  }
  return interrupt;
}

}  // namespace

namespace internal {

Result<InverseChaseResult> InverseChase(const DependencySet& sigma,
                                        const Instance& target,
                                        const InverseChaseOptions& options) {
  InverseChaseResult result;
  Status status = RunInverseChase(sigma, target, options,
                                  /*keep_partial=*/false, &result);
  if (!status.ok()) return status;
  return result;
}

InverseChaseResult InverseChasePartial(const DependencySet& sigma,
                                       const Instance& target,
                                       const InverseChaseOptions& options,
                                       Status* interrupt) {
  InverseChaseResult result;
  *interrupt = RunInverseChase(sigma, target, options,
                               /*keep_partial=*/true, &result);
  return result;
}

Result<bool> IsValidForRecovery(const DependencySet& sigma,
                                const Instance& target,
                                const InverseChaseOptions& options) {
  // An empty target is vacuously valid (the empty source justifies it).
  if (target.empty()) return true;
  Result<InverseChaseResult> result = InverseChase(sigma, target, options);
  if (!result.ok()) return result.status();
  return result->valid_for_recovery();
}

Result<bool> IsUniversalSolutionForSomeSource(
    const DependencySet& sigma, const Instance& target,
    const InverseChaseOptions& options) {
  if (target.empty()) return true;  // witnessed by the empty source
  Result<InverseChaseResult> result = InverseChase(sigma, target, options);
  if (!result.ok()) return result.status();
  for (const Instance& candidate : result->recoveries) {
    if (IsUniversalSolutionFor(sigma, candidate, target)) return true;
  }
  return false;
}

Result<bool> IsCanonicalSolutionForSomeSource(
    const DependencySet& sigma, const Instance& target,
    const InverseChaseOptions& options) {
  if (target.empty()) return true;
  Result<InverseChaseResult> result = InverseChase(sigma, target, options);
  if (!result.ok()) return result.status();
  for (const Instance& candidate : result->recoveries) {
    if (IsCanonicalSolutionFor(sigma, candidate, target)) return true;
  }
  return false;
}

}  // namespace internal
}  // namespace dxrec
