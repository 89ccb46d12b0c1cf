// Unit tests for Chase^{-1} (Def. 9) and certain answers beyond the
// paper's worked examples.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/fresh.h"
#include "chase/chase.h"
#include "chase/homomorphism.h"
#include "chase/instance_core.h"
#include "core/certain.h"
#include "core/cover.h"
#include "core/hom_set.h"
#include "core/inverse_chase.h"
#include "core/recovery.h"
#include "datagen/generators.h"
#include "datagen/scenarios.h"
#include "logic/parser.h"
#include "obs/events.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "relational/instance_ops.h"
#include "util/thread_pool.h"

namespace dxrec {
namespace {

Instance I(const char* text) {
  Result<Instance> parsed = ParseInstance(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return *parsed;
}

DependencySet S(const char* text) {
  Result<DependencySet> parsed = ParseTgdSet(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

UnionQuery U(const char* text) {
  Result<UnionQuery> parsed = ParseUnionQuery(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(*parsed);
}

TEST(InverseChase, CopyMappingRoundTrip) {
  DependencySet sigma = S("Ria(x, y) -> Sia(x, y)");
  Instance j = I("{Sia(a, b), Sia(c, d)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->recoveries.size(), 1u);
  EXPECT_EQ(result->recoveries[0], I("{Ria(a, b), Ria(c, d)}"));
}

TEST(InverseChase, EmptyTargetHasEmptyRecovery) {
  DependencySet sigma = S("Rib(x) -> Sib(x)");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, I("{}"));
  ASSERT_TRUE(result.ok());
  // The empty source justifies the empty target.
  ASSERT_EQ(result->recoveries.size(), 1u);
  EXPECT_TRUE(result->recoveries[0].empty());
  Result<bool> valid = internal::IsValidForRecovery(sigma, I("{}"));
  ASSERT_TRUE(valid.ok());
  EXPECT_TRUE(*valid);
}

TEST(InverseChase, AlternativeSourcesEnumerated) {
  // First case from the intro (eq. before Sec. 2 discussion):
  // R(x) -> S(x); M(y) -> S(y). J = {S(a)} has recoveries {R(a)},
  // {M(a)}, {R(a), M(a)}.
  DependencySet sigma = S("Ric(x) -> Sic(x); Mic(y) -> Sic(y)");
  Instance j = I("{Sic(a)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->recoveries.size(), 3u);
  auto contains = [&](const char* text) {
    Instance expected = I(text);
    for (const Instance& r : result->recoveries) {
      if (r == expected) return true;
    }
    return false;
  };
  EXPECT_TRUE(contains("{Ric(a)}"));
  EXPECT_TRUE(contains("{Mic(a)}"));
  EXPECT_TRUE(contains("{Ric(a), Mic(a)}"));
}

TEST(InverseChase, GCollapseCannotSmuggleUnsoundTriggers) {
  // The head-existential of tgd 1 can be specialized by g onto a value
  // that would create a *new* trigger of tgd 2. The final verification
  // must reject candidates whose fresh triggers escape J.
  DependencySet sigma =
      S("Rid(x) -> exists z: Sid(x, z); Pid(u, u) -> Tid(u)");
  // S's second column comes from a null; specializing it to `a` does not
  // create a P-pattern, so this is fine -- but the engine must also never
  // emit a source containing Pid(a, a) unless Tid(a) is in J.
  Instance j = I("{Sid(a, b)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->valid_for_recovery());
  for (const Instance& rec : result->recoveries) {
    for (const Atom& atom : rec.atoms()) {
      EXPECT_NE(atom.relation(), InternRelation("Pid"))
          << rec.ToString();
    }
  }
}

TEST(InverseChase, SharedFrontierForcesJoin) {
  // Intro example (1): J = {S(a), P(b1), P(b2)} under
  // R(x,y) -> S(x), P(y) forces every recovery to pair a with each bi.
  DependencySet sigma = S("Rie(x, y) -> Sie(x), Pie(y)");
  Instance j = I("{Sie(a), Pie(b1), Pie(b2)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->valid_for_recovery());
  for (const Instance& rec : result->recoveries) {
    EXPECT_TRUE(rec.Contains(I("{Rie(a, b1)}").atoms()[0]))
        << rec.ToString();
    EXPECT_TRUE(rec.Contains(I("{Rie(a, b2)}").atoms()[0]))
        << rec.ToString();
  }
  // And S(a2) unmatched by any P: invalid.
  Result<bool> invalid =
      internal::IsValidForRecovery(sigma, I("{Sie(a), Sie(a2)}"));
  ASSERT_TRUE(invalid.ok());
  // {S(a), S(a2)}: R-tuples would add P-atoms; no P in J -> invalid.
  EXPECT_FALSE(*invalid);
}

TEST(InverseChase, EveryEmittedInstanceIsARecovery) {
  DependencySet sigma =
      S("Rif(x, y) -> Sif(x), Tif(y); Mif(z) -> Tif(z)");
  Instance j = I("{Sif(a), Tif(b), Tif(c)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->valid_for_recovery());
  for (const Instance& rec : result->recoveries) {
    Result<bool> is_rec = IsRecovery(sigma, rec, j);
    ASSERT_TRUE(is_rec.ok());
    EXPECT_TRUE(*is_rec) << rec.ToString();
  }
}

TEST(InverseChase, StatsArepopulated) {
  DependencySet sigma = S("Rig(x) -> Sig(x); Mig(y) -> Sig(y)");
  Instance j = I("{Sig(a)}");
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.num_homs, 2u);
  EXPECT_EQ(result->stats.num_covers, 3u);
  EXPECT_GE(result->stats.num_covers_passing_sub, 3u);
  EXPECT_GE(result->stats.num_g_homs, 3u);
}

TEST(InverseChase, RecoveryBudgetEnforced) {
  DependencySet sigma = S("Rih(x) -> Sih(x); Mih(y) -> Sih(y)");
  Instance j = I("{Sih(a), Sih(b), Sih(c), Sih(d)}");
  InverseChaseOptions tight;
  tight.max_recoveries = 2;
  Result<InverseChaseResult> result = internal::InverseChase(sigma, j, tight);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(Certain, InvalidTargetIsFailedPrecondition) {
  DependencySet sigma = S("Rii(x) -> Sii(x), Tii(x)");
  Instance j = I("{Sii(a)}");  // T(a) missing: invalid
  Result<AnswerSet> cert = internal::CertainAnswers(U("Q(x) :- Rii(x)"), sigma, j);
  EXPECT_FALSE(cert.ok());
  EXPECT_EQ(cert.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Certain, UnionQueriesAcrossRecoveries) {
  // Under R->S; M->S every recovery provides a or-answer via R or M.
  DependencySet sigma = S("Rij(x) -> Sij(x); Mij(y) -> Sij(y)");
  Instance j = I("{Sij(a)}");
  // Neither R(a) nor M(a) alone is certain...
  Result<AnswerSet> r_only = internal::CertainAnswers(U("Q(x) :- Rij(x)"), sigma, j);
  ASSERT_TRUE(r_only.ok());
  EXPECT_TRUE(r_only->empty());
  // ...but their union is.
  Result<AnswerSet> either =
      internal::CertainAnswers(U("Q(x) :- Rij(x) | Q(x) :- Mij(x)"), sigma, j);
  ASSERT_TRUE(either.ok());
  EXPECT_EQ(*either, (AnswerSet{{Term::Constant("a")}}));
}

TEST(Certain, IsCertainDecision) {
  DependencySet sigma = S("Rik(x, y) -> Sik(x), Pik(y)");
  Instance j = I("{Sik(a), Pik(b)}");
  Result<bool> yes = internal::IsCertain({Term::Constant("a")},
                               U("Q(x) :- Rik(x, y)"), sigma, j);
  ASSERT_TRUE(yes.ok());
  EXPECT_TRUE(*yes);
  Result<bool> no = internal::IsCertain({Term::Constant("b")},
                              U("Q(x) :- Rik(x, y)"), sigma, j);
  ASSERT_TRUE(no.ok());
  EXPECT_FALSE(*no);
}

TEST(InverseChase, ParallelMatchesSequential) {
  DependencySet sigma =
      S("Rim(x, y) -> Sim(x), Tim(y); Mim(z) -> Tim(z); Nim(w) -> Sim(w)");
  Instance j = I("{Sim(a), Sim(b), Tim(c), Tim(d)}");
  Result<InverseChaseResult> sequential = internal::InverseChase(sigma, j);
  ASSERT_TRUE(sequential.ok());
  InverseChaseOptions parallel_options;
  parallel_options.num_threads = 4;
  Result<InverseChaseResult> parallel =
      internal::InverseChase(sigma, j, parallel_options);
  ASSERT_TRUE(parallel.ok());
  // Same stats and the same recovery set up to null relabeling.
  EXPECT_EQ(parallel->stats.num_covers, sequential->stats.num_covers);
  EXPECT_EQ(parallel->stats.num_g_homs, sequential->stats.num_g_homs);
  ASSERT_EQ(parallel->recoveries.size(), sequential->recoveries.size());
  for (size_t i = 0; i < parallel->recoveries.size(); ++i) {
    EXPECT_TRUE(
        AreIsomorphic(parallel->recoveries[i], sequential->recoveries[i]))
        << i;
  }
}

TEST(InverseChase, StatsCountersDeterministicAcrossThreadCounts) {
  // Fixed scenario with several covers; every InverseChaseStats counter
  // must be bit-identical between the sequential and the 4-thread run
  // (timings naturally differ and are excluded). Tracing is enabled so
  // the per-cover spans are exercised under concurrency too.
  bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  DependencySet sigma =
      S("Rid(x, y) -> Sid(x), Tid(y); Mid(z) -> Tid(z); Nid(w) -> Sid(w)");
  Instance j = I("{Sid(a), Sid(b), Tid(c), Tid(d)}");

  InverseChaseOptions sequential_options;
  sequential_options.num_threads = 1;
  Result<InverseChaseResult> sequential =
      internal::InverseChase(sigma, j, sequential_options);
  ASSERT_TRUE(sequential.ok());

  InverseChaseOptions parallel_options;
  parallel_options.num_threads = 4;
  Result<InverseChaseResult> parallel =
      internal::InverseChase(sigma, j, parallel_options);
  ASSERT_TRUE(parallel.ok());
  obs::SetEnabled(was_enabled);

  const InverseChaseStats& s = sequential->stats;
  const InverseChaseStats& p = parallel->stats;
  EXPECT_EQ(p.num_homs, s.num_homs);
  EXPECT_EQ(p.num_covers, s.num_covers);
  EXPECT_EQ(p.num_covers_passing_sub, s.num_covers_passing_sub);
  EXPECT_EQ(p.num_covers_yielding_recoveries,
            s.num_covers_yielding_recoveries);
  EXPECT_EQ(p.num_g_homs, s.num_g_homs);
  EXPECT_EQ(p.num_recoveries_before_dedup, s.num_recoveries_before_dedup);
  EXPECT_EQ(p.num_candidates_rejected, s.num_candidates_rejected);
  EXPECT_EQ(p.num_candidates_unverified, s.num_candidates_unverified);
  EXPECT_EQ(parallel->recoveries.size(), sequential->recoveries.size());
}

TEST(InverseChase, ParallelCertainAnswersMatch) {
  DependencySet sigma = S("Rin(x, y) -> Sin(x), Pin(y)");
  Instance j = I("{Sin(a), Pin(b1), Pin(b2), Pin(b3)}");
  UnionQuery q = U("Q(x, y) :- Rin(x, y)");
  Result<AnswerSet> sequential = internal::CertainAnswers(q, sigma, j);
  ASSERT_TRUE(sequential.ok());
  InverseChaseOptions parallel_options;
  parallel_options.num_threads = 3;
  Result<AnswerSet> parallel =
      internal::CertainAnswers(q, sigma, j, parallel_options);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(*sequential, *parallel);
}

TEST(Certain, BooleanQueryCertainty) {
  DependencySet sigma = S("Ril(x, y) -> Sil(x), Pil(y)");
  Instance j = I("{Sil(a), Pil(b)}");
  Result<AnswerSet> cert =
      internal::CertainAnswers(U(":- Ril(x, y)"), sigma, j);
  ASSERT_TRUE(cert.ok());
  // Boolean certain-true is the singleton empty tuple.
  EXPECT_EQ(cert->size(), 1u);
  EXPECT_TRUE(cert->begin()->empty());
}

// --- Step 7's verification memo ----------------------------------------

// Step 6 as a plain search: every g : J_H -> J that is the identity on
// dom(J).
std::vector<Substitution> ReferenceGHoms(const Instance& chased,
                                         const Instance& target) {
  HomSearchOptions options;
  options.map_nulls = true;
  for (Term t : target.TermsOfKind(TermKind::kNull)) options.fixed.Set(t, t);
  return FindHomomorphisms(chased.atoms(), target, options);
}

// Searches that `fn` runs.
template <typename Fn>
uint64_t SearchesIn(const Fn& fn) {
  obs::stats::SearchStats search;
  obs::stats::ScopedSearch scope(&search);
  fn();
  return search.searches;
}

// Step 7 without the memo, assembled from the public phases: every g of
// every cover yields a candidate (its core when `core`) that is verified
// on its own. Returns every candidate and the verified ones (in cover,
// then g order) and counts the rest. Over a ground target,
// `cover_searches` holds, per cover, the searches a memoized step 7 runs
// there: coring every candidate, and one check of each distinct
// (CanonicalString) candidate unless Sigma decides its covers.
struct ReferenceStep7 {
  size_t candidates = 0;
  size_t rejected = 0;
  std::vector<Instance> all;
  std::vector<Instance> verified;
  std::vector<uint64_t> cover_searches;
};

ReferenceStep7 RunReferenceStep7(const DependencySet& sigma,
                                 const Instance& target, bool core = false) {
  ReferenceStep7 out;
  std::vector<HeadHom> homs = ComputeHomSet(sigma, target);
  CoverProblem problem(sigma, target, homs);
  Result<std::vector<Cover>> covers = problem.AllCovers(CoverOptions());
  EXPECT_TRUE(covers.ok());
  if (!covers.ok()) return out;
  const bool decided = !core && internal::CoversDecideRecoveries(sigma);
  for (const Cover& cover : *covers) {
    std::vector<HeadHom> h_set;
    for (size_t idx : cover) h_set.push_back(homs[idx]);
    Instance source = SourceAtomsFor(sigma, h_set, &FreshNulls());
    Instance chased = Chase(sigma, source, &FreshNulls());
    uint64_t searches = 0;
    std::set<std::string> checked;
    for (const Substitution& g : ReferenceGHoms(chased, target)) {
      Instance candidate = source.Apply(g);
      if (core) {
        searches += SearchesIn([&] { candidate = ComputeCore(candidate); });
      }
      out.candidates++;
      out.all.push_back(candidate);
      bool ok = false;
      const uint64_t check = SearchesIn(
          [&] { ok = IsMinimalSolution(sigma, candidate, target); });
      if (!decided && checked.insert(CanonicalString(candidate)).second) {
        searches += check;
      }
      if (!ok && !target.IsGround()) {
        Result<bool> justified = IsJustifiedSolution(sigma, candidate, target);
        ok = justified.ok() && *justified;
      }
      if (ok) {
        out.verified.push_back(std::move(candidate));
      } else {
        out.rejected++;
      }
    }
    out.cover_searches.push_back(searches);
  }
  return out;
}

// The pipeline with the SUB filter and isomorphism dedup off, so its
// recoveries are exactly the exact-distinct verified candidates.
InverseChaseOptions UnfilteredOptions() {
  InverseChaseOptions options;
  options.use_subsumption_filter = false;
  options.dedup_isomorphic = false;
  return options;
}

// Both lists hold the same instances up to null renaming, in any order.
void ExpectSameUpToIsomorphism(const std::vector<Instance>& want,
                               const std::vector<Instance>& got) {
  std::vector<bool> matched(want.size(), false);
  for (const Instance& g : got) {
    bool found = false;
    for (size_t i = 0; i < want.size() && !found; ++i) {
      if (!matched[i] && AreIsomorphic(want[i], g)) {
        matched[i] = true;
        found = true;
      }
    }
    EXPECT_TRUE(found) << "unexpected recovery " << g.ToString();
  }
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(matched[i]) << "missing recovery " << want[i].ToString();
  }
}

// Exact-distinct candidates of a reference run (its merge's dedup).
std::vector<Instance> ExactDistinct(const std::vector<Instance>& all) {
  std::set<std::string> seen;
  std::vector<Instance> out;
  for (const Instance& instance : all) {
    if (seen.insert(CanonicalString(instance)).second) {
      out.push_back(instance);
    }
  }
  return out;
}

// Turns stats (and events) on for a scope and restores them after.
class ScopedStatsAndEvents {
 public:
  ScopedStatsAndEvents()
      : was_enabled_(obs::Enabled()),
        were_events_enabled_(obs::EventsEnabled()),
        were_stats_enabled_(obs::stats::Enabled()) {
    obs::SetEnabled(true);
    obs::SetEventsEnabled(true);
    obs::stats::SetEnabled(true);
    obs::EventSink::Global().Configure(obs::EventSink::kDefaultCapacity);
  }
  ~ScopedStatsAndEvents() {
    obs::SetEnabled(was_enabled_);
    obs::SetEventsEnabled(were_events_enabled_);
    obs::stats::SetEnabled(were_stats_enabled_);
  }

  static std::map<std::string, size_t> EventCounts() {
    std::map<std::string, size_t> counts;
    for (const obs::Event& e : obs::EventSink::Global().Snapshot()) {
      counts[e.type]++;
    }
    return counts;
  }

 private:
  bool was_enabled_;
  bool were_events_enabled_;
  bool were_stats_enabled_;
};

// Searches one IsMinimalSolution call runs on `source`.
uint64_t SearchesPerCheck(const DependencySet& sigma, const Instance& source,
                          const Instance& target) {
  return SearchesIn([&] { (void)IsMinimalSolution(sigma, source, target); });
}

// `a` and `b` list the same atoms in the same order, up to a bijective
// renaming of nulls.
bool SameUpToNullRenaming(const Instance& a, const Instance& b) {
  if (a.size() != b.size()) return false;
  std::unordered_map<Term, Term, TermHash> forward;
  std::unordered_map<Term, Term, TermHash> backward;
  for (size_t i = 0; i < a.size(); ++i) {
    const Atom& x = a.atoms()[i];
    const Atom& y = b.atoms()[i];
    if (x.relation() != y.relation() || x.arity() != y.arity()) return false;
    for (size_t k = 0; k < x.arity(); ++k) {
      const Term s = x.arg(k);
      const Term t = y.arg(k);
      if (s.is_null() != t.is_null()) return false;
      if (!s.is_null()) {
        if (s != t) return false;
        continue;
      }
      if (forward.emplace(s, t).first->second != t ||
          backward.emplace(t, s).first->second != s) {
        return false;
      }
    }
  }
  return true;
}

TEST(InverseChaseMemo, BlowupRecoveryCounts) {
  // Post-Lemma-1 blowup at p = 2: one cover, 2^q * q^2 back-homs.
  const size_t want[] = {1, 7, 24, 70, 190};
  for (size_t q = 1; q <= 5; ++q) {
    Result<InverseChaseResult> result = internal::InverseChase(
        BlowupScenario::Sigma(), BlowupScenario::Target(2, q));
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->recoveries.size(), want[q - 1]) << "q=" << q;
  }
}

TEST(InverseChaseMemo, VerifiesEachDistinctCandidateOnce) {
  ScopedStatsAndEvents scope;
  DependencySet sigma = BlowupScenario::Sigma();
  Instance j = BlowupScenario::Target(2, 4);
  Result<InverseChaseResult> result =
      internal::InverseChase(sigma, j, UnfilteredOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  obs::stats::RunStats run;
  ASSERT_TRUE(obs::stats::LastRun(&run));
  ASSERT_EQ(run.covers.size(), 1u);

  // Every candidate still counts; duplicates reach merge and are deduped
  // there, so the distinct keys are exactly the emitted recoveries.
  const InverseChaseStats& stats = result->stats;
  EXPECT_EQ(stats.num_recoveries_before_dedup, 256u);
  EXPECT_EQ(stats.num_candidates_rejected, 0u);
  const size_t distinct = result->recoveries.size();
  EXPECT_EQ(ScopedStatsAndEvents::EventCounts()["recovery.deduped"],
            stats.num_recoveries_before_dedup - distinct);
  EXPECT_LT(distinct, stats.num_recoveries_before_dedup);
  // Blowup's Sigma is full and join-free: its candidates are recoveries
  // without a check (DuplicatesInheritRejections counts the memo's).
  EXPECT_EQ(run.covers[0].verify.searches, 0u);

  ReferenceStep7 reference = RunReferenceStep7(sigma, j);
  EXPECT_EQ(stats.num_recoveries_before_dedup, reference.candidates);
  ExpectSameUpToIsomorphism(ExactDistinct(reference.verified),
                            result->recoveries);
}

TEST(InverseChaseMemo, DuplicatesInheritRejections) {
  // g-collapses that equate u and v create Rmr(w, w) triggers whose Umr
  // head J lacks, and several g collapse onto each rejected candidate.
  ScopedStatsAndEvents scope;
  DependencySet sigma =
      S("Rmr(x, y) -> Smr(x); Rmr(u, v) -> Tmr(v); Rmr(w, w) -> Umr(w)");
  Instance j = I("{Smr(a), Smr(b), Tmr(a), Tmr(b), Tmr(c)}");
  Result<InverseChaseResult> result =
      internal::InverseChase(sigma, j, UnfilteredOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const InverseChaseStats& stats = result->stats;
  ReferenceStep7 reference = RunReferenceStep7(sigma, j);
  EXPECT_GT(reference.rejected, 0u);
  EXPECT_EQ(stats.num_recoveries_before_dedup, reference.candidates);
  EXPECT_EQ(stats.num_candidates_rejected, reference.rejected);
  EXPECT_EQ(ScopedStatsAndEvents::EventCounts()["recovery.rejected"],
            reference.rejected);
  ExpectSameUpToIsomorphism(ExactDistinct(reference.verified),
                            result->recoveries);

  // Fewer verifications than candidates: the memo had duplicates to skip.
  obs::stats::RunStats run;
  ASSERT_TRUE(obs::stats::LastRun(&run));
  ASSERT_EQ(run.covers.size(), 1u);
  const uint64_t searches = run.covers[0].verify.searches;
  const uint64_t per_check =
      SearchesPerCheck(sigma, result->recoveries[0], j);
  EXPECT_LT(searches, stats.num_recoveries_before_dedup * per_check);
  // Exactly one check per distinct candidate of the (one) cover.
  uint64_t distinct_checks = 0;
  for (const Instance& candidate : ExactDistinct(reference.all)) {
    distinct_checks += SearchesPerCheck(sigma, candidate, j);
  }
  EXPECT_EQ(searches, distinct_checks);
}

TEST(InverseChaseMemo, RecoveryCapStopsDuplicateEventsInGOrder) {
  // Blowup p=2 q=4 is one cover whose 256 candidates hold 70 distinct
  // ones. Under a recovery cap in partial mode, merge reports exactly the
  // duplicates that precede the overflowing candidate in g order.
  ScopedStatsAndEvents scope;
  DependencySet sigma = BlowupScenario::Sigma();
  Instance j = BlowupScenario::Target(2, 4);
  ReferenceStep7 reference = RunReferenceStep7(sigma, j);
  for (size_t cap : {1u, 10u, 40u, 69u}) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    std::set<std::string> seen;
    size_t duplicates = 0;
    for (const Instance& candidate : reference.verified) {
      if (seen.insert(CanonicalString(candidate)).second) {
        if (seen.size() > cap) break;
      } else {
        ++duplicates;
      }
    }
    ASSERT_GT(seen.size(), cap);
    InverseChaseOptions options = UnfilteredOptions();
    options.max_recoveries = cap;
    obs::EventSink::Global().Configure(obs::EventSink::kDefaultCapacity);
    Status interrupt;
    InverseChaseResult result =
        internal::InverseChasePartial(sigma, j, options, &interrupt);
    EXPECT_EQ(interrupt.code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(result.recoveries.size(), cap);
    EXPECT_EQ(ScopedStatsAndEvents::EventCounts()["recovery.deduped"],
              duplicates);
  }
}

TEST(InverseChaseMemo, TargetWithNullsVerifiesEveryCandidate) {
  // Target nulls: no memo, so every candidate runs its own check (and
  // the justification fallback where minimality fails). The expected
  // counters and recoveries were recorded from the engine before the
  // memo existed.
  struct Case {
    const char* sigma;
    const char* target;
    size_t candidates;
    size_t rejected;
    std::vector<std::string> recoveries;
    // False for a full, join-free Sigma, whose candidates step 7 takes
    // without a check.
    bool checks;
  };
  const Case cases[] = {
      {"Rmn(x, y) -> Smn(x); Rmn(u, v) -> Tmn(v)",
       "{Smn(a), Smn(_X), Tmn(c), Tmn(_Y)}",
       16,
       0,
       {"{Rmn(a, c), Rmn(a, _N0), Rmn(_N1, c)}",
        "{Rmn(a, c), Rmn(a, _N0), Rmn(_N1, _N0)}",
        "{Rmn(a, c), Rmn(_N0, c), Rmn(_N0, _N1)}",
        "{Rmn(a, c), Rmn(_N0, _N1)}",
        "{Rmn(a, c), Rmn(a, _N0), Rmn(_N1, c), Rmn(_N1, _N0)}",
        "{Rmn(a, _N0), Rmn(_N1, c)}",
        "{Rmn(a, _N0), Rmn(_N1, c), Rmn(_N1, _N0)}"},
       false},
      {"Rmq(x, y) -> Smq(x); Rmq(u, v) -> Tmq(v); Rmq(w, w) -> Umq(w)",
       "{Smq(a), Smq(_X), Tmq(a), Tmq(_X), Tmq(c)}",
       72,
       64,
       {"{Rmq(a, c), Rmq(a, _N0), Rmq(_N0, a)}",
        "{Rmq(a, c), Rmq(a, _N0), Rmq(_N0, a), Rmq(_N0, c)}",
        "{Rmq(a, _N0), Rmq(_N0, a), Rmq(_N0, c)}"},
       true},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.target);
    ScopedStatsAndEvents scope;
    DependencySet sigma = S(c.sigma);
    Instance j = I(c.target);
    Result<InverseChaseResult> recorded = internal::InverseChase(sigma, j);
    ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
    EXPECT_EQ(recorded->stats.num_recoveries_before_dedup, c.candidates);
    EXPECT_EQ(recorded->stats.num_candidates_rejected, c.rejected);
    std::vector<std::string> got;
    for (const Instance& recovery : recorded->recoveries) {
      got.push_back(CanonicalString(recovery));
    }
    EXPECT_EQ(got, c.recoveries);

    Result<InverseChaseResult> result =
        internal::InverseChase(sigma, j, UnfilteredOptions());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const InverseChaseStats& stats = result->stats;
    ReferenceStep7 reference = RunReferenceStep7(sigma, j);
    EXPECT_EQ(stats.num_recoveries_before_dedup, reference.candidates);
    EXPECT_EQ(stats.num_candidates_rejected, reference.rejected);
    ExpectSameUpToIsomorphism(ExactDistinct(reference.verified),
                              result->recoveries);

    obs::stats::RunStats run;
    ASSERT_TRUE(obs::stats::LastRun(&run));
    ASSERT_EQ(run.covers.size(), 1u);
    if (!c.checks) {
      EXPECT_EQ(run.covers[0].verify.searches, 0u);
      continue;
    }
    const uint64_t per_check =
        SearchesPerCheck(sigma, result->recoveries[0], j);
    EXPECT_GE(run.covers[0].verify.searches,
              stats.num_recoveries_before_dedup * per_check);
  }
}

// --- Covers of a full, join-free Sigma decide their own recoveries -------

// UnfilteredOptions under the budgets of columnar_diff_test's generated
// corpus, which keep the unbudgeted reference runs small.
InverseChaseOptions BudgetedUnfilteredOptions() {
  InverseChaseOptions options = UnfilteredOptions();
  options.cover.max_covers = 64;
  options.cover.max_nodes = 1u << 16;
  options.max_g_homs_per_cover = 128;
  options.max_recoveries = 128;
  return options;
}

// Generated full, join-free mappings (every head variable drawn from the
// body, no body variable repeated) with small targets: ground ones, and
// ones with a null, chased from a source where one constant became that
// null. Calls `check(name, sigma, target)` on each case whose pipeline
// run stays within BudgetedUnfilteredOptions.
template <typename Check>
void ForEachJoinFreeFullCase(const Check& check) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 104729 + 7);
    const std::string tag = "jf" + std::to_string(seed) + "_";
    MappingSpec spec;
    spec.num_tgds = 2 + rng.Index(3);
    spec.num_source_relations = 1 + rng.Index(2);
    spec.num_target_relations = 2;
    spec.max_body_atoms = 2;
    spec.max_head_atoms = 2;
    spec.frontier_prob = 1.0;
    spec.join_prob = 0.0;
    DependencySet sigma = RandomMapping(spec, tag, &rng);
    SourceSpec source_spec;
    source_spec.num_tuples = 2 + rng.Index(3);
    source_spec.num_constants = 4;
    Instance source = RandomSource(sigma, source_spec, tag, &rng);
    for (bool ground : {true, false}) {
      Instance chased_from = source;
      if (!ground) {
        const std::vector<Term> constants =
            source.TermsOfKind(TermKind::kConstant);
        if (constants.empty()) continue;
        Substitution to_null;
        to_null.Set(constants[rng.Index(constants.size())],
                    FreshNulls().Fresh());
        chased_from = source.Apply(to_null);
      }
      Instance target = Chase(sigma, chased_from, &FreshNulls());
      if (target.empty() || target.size() > 8) continue;
      if (!internal::InverseChase(sigma, target, BudgetedUnfilteredOptions())
               .ok()) {
        continue;
      }
      check("seed " + std::to_string(seed) + (ground ? " ground" : " nulls"),
            sigma, target);
    }
  }
}

TEST(DecidedCovers, EveryCandidateOfAJoinFreeFullSigmaIsARecovery) {
  ScopedStatsAndEvents scope;
  size_t ground_runs = 0;
  size_t null_runs = 0;
  ForEachJoinFreeFullCase([&](const std::string& name,
                              const DependencySet& sigma,
                              const Instance& target) {
    SCOPED_TRACE(name + ": J = " + target.ToString());
    ASSERT_TRUE(internal::CoversDecideRecoveries(sigma));
    ReferenceStep7 reference = RunReferenceStep7(sigma, target);
    EXPECT_EQ(reference.rejected, 0u);
    Result<InverseChaseResult> result =
        internal::InverseChase(sigma, target, BudgetedUnfilteredOptions());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats.num_recoveries_before_dedup,
              reference.candidates);
    EXPECT_EQ(result->stats.num_candidates_rejected, 0u);
    ExpectSameUpToIsomorphism(ExactDistinct(reference.verified),
                              result->recoveries);
    obs::stats::RunStats run;
    ASSERT_TRUE(obs::stats::LastRun(&run));
    for (const obs::stats::CoverStats& cover : run.covers) {
      EXPECT_EQ(cover.verify.searches, 0u) << "cover " << cover.cover_index;
    }
    ++(target.IsGround() ? ground_runs : null_runs);
  });
  EXPECT_GT(ground_runs, 50u);
  EXPECT_GT(null_runs, 50u);
}

TEST(DecidedCovers, ForcedGHomomorphismsMatchTheSearch) {
  size_t forced = 0;
  size_t searched = 0;
  ForEachJoinFreeFullCase([&](const std::string& name,
                              const DependencySet& sigma,
                              const Instance& target) {
    SCOPED_TRACE(name + ": J = " + target.ToString());
    std::vector<HeadHom> homs = ComputeHomSet(sigma, target);
    CoverProblem problem(sigma, target, homs);
    Result<std::vector<Cover>> covers = problem.AllCovers(CoverOptions());
    ASSERT_TRUE(covers.ok());
    for (const Cover& cover : *covers) {
      std::vector<HeadHom> h_set;
      for (size_t idx : cover) h_set.push_back(homs[idx]);
      Instance chased = Chase(
          sigma, SourceAtomsFor(sigma, h_set, &FreshNulls()), &FreshNulls());
      std::optional<std::vector<Substitution>> gs =
          internal::ForcedGHomomorphisms(chased, target);
      if (!gs.has_value()) {
        ++searched;
        continue;
      }
      ++forced;
      std::vector<Substitution> want = ReferenceGHoms(chased, target);
      ASSERT_EQ(gs->size(), want.size()) << chased.ToString();
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ((*gs)[i].ToString(), want[i].ToString());
      }
    }
  });
  EXPECT_GT(forced, 50u);
  EXPECT_GT(searched, 50u);
}

// --- Step 7's candidate table against per-candidate keys ----------------

// Generated mappings with small ground targets. Heads drop some body
// variables, so an I_H null that no g binds survives into candidates:
// {R(a, _N1), R(b, _N2)} and its swap are then one canonical key. Calls
// `check(name, sigma, target)` on each case whose pipeline run stays
// within BudgetedUnfilteredOptions.
template <typename Check>
void ForEachGroundTargetCase(const Check& check) {
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    Rng rng(seed * 6151 + 3);
    const std::string tag = "ct" + std::to_string(seed) + "_";
    MappingSpec spec;
    spec.num_tgds = 2 + rng.Index(2);
    spec.num_source_relations = 1 + rng.Index(2);
    spec.num_target_relations = 2;
    spec.max_body_atoms = 2;
    spec.max_head_atoms = 2;
    DependencySet sigma = RandomMapping(spec, tag, &rng);
    SourceSpec source_spec;
    source_spec.num_tuples = 2 + rng.Index(3);
    source_spec.num_constants = 4;
    Instance source = RandomSource(sigma, source_spec, tag, &rng);
    Instance target = ChaseTarget(sigma, source, /*ground=*/true);
    if (target.empty() || target.size() > 8) continue;
    if (!internal::InverseChase(sigma, target, BudgetedUnfilteredOptions())
             .ok()) {
      continue;
    }
    check("seed " + std::to_string(seed), sigma, target);
  }
}

TEST(InverseChaseMemo, CandidateTableMatchesPerCandidateKeys) {
  ScopedStatsAndEvents scope;
  util::ThreadPool pool(4);
  size_t runs = 0;
  size_t merged_by_renumbering = 0;
  size_t with_duplicates = 0;
  size_t with_checks = 0;
  ForEachGroundTargetCase([&](const std::string& name,
                              const DependencySet& sigma,
                              const Instance& target) {
    for (bool core : {false, true}) {
      ReferenceStep7 reference = RunReferenceStep7(sigma, target, core);
      const std::vector<Instance> want = ExactDistinct(reference.verified);
      std::set<std::string> raw;
      for (const Instance& instance : reference.verified) {
        raw.insert(instance.ToString());
      }
      if (raw.size() > want.size()) ++merged_by_renumbering;
      if (want.size() < reference.verified.size()) ++with_duplicates;
      for (uint64_t searches : reference.cover_searches) {
        if (searches > 0) {
          ++with_checks;
          break;
        }
      }
      for (size_t threads : {1u, 4u}) {
        SCOPED_TRACE(name + (core ? " core" : "") + " threads " +
                     std::to_string(threads) + ": J = " + target.ToString());
        InverseChaseOptions options = BudgetedUnfilteredOptions();
        options.core_recoveries = core;
        options.num_threads = threads;
        options.pool = threads > 1 ? &pool : nullptr;
        obs::EventSink::Global().Configure(obs::EventSink::kDefaultCapacity);
        Result<InverseChaseResult> result =
            internal::InverseChase(sigma, target, options);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ++runs;
        EXPECT_EQ(result->stats.num_recoveries_before_dedup,
                  reference.candidates);
        EXPECT_EQ(result->stats.num_candidates_rejected, reference.rejected);
        EXPECT_EQ(ScopedStatsAndEvents::EventCounts()["recovery.deduped"],
                  reference.verified.size() - want.size());
        ASSERT_EQ(result->recoveries.size(), want.size());
        for (size_t r = 0; r < want.size(); ++r) {
          EXPECT_TRUE(SameUpToNullRenaming(result->recoveries[r], want[r]))
              << "recovery " << r << ": " << result->recoveries[r].ToString()
              << " vs " << want[r].ToString();
        }
        obs::stats::RunStats run;
        ASSERT_TRUE(obs::stats::LastRun(&run));
        ASSERT_EQ(run.covers.size(), reference.cover_searches.size());
        for (size_t c = 0; c < run.covers.size(); ++c) {
          EXPECT_EQ(run.covers[c].verify.searches, reference.cover_searches[c])
              << "cover " << c;
        }
      }
    }
  });
  EXPECT_GT(runs, 300u);
  EXPECT_GT(merged_by_renumbering, 20u);
  EXPECT_GT(with_duplicates, 60u);
  EXPECT_GT(with_checks, 100u);
}

// --- Merge's isomorphism dedup against a quadratic pass ------------------

// Merge with dedup_isomorphic on must keep exactly what a plain quadratic
// AreIsomorphic pass keeps from the dedup-off output: each class's first
// representative, in order, with its explanation. Counts the runs that
// finished in `*finished` and the recoveries the dedup dropped in
// `*dropped`; `*undeduped`, when given, receives the dedup-off output.
void ExpectDedupMatchesQuadraticPass(
    const std::string& name, const DependencySet& sigma,
    const Instance& target, size_t* finished, size_t* dropped,
    std::vector<Instance>* undeduped = nullptr) {
  SCOPED_TRACE(name + ": J = " + target.ToString());
  // The budgets of columnar_diff_test's generated corpus.
  InverseChaseOptions options;
  options.cover.max_covers = 64;
  options.cover.max_nodes = 1u << 16;
  options.max_g_homs_per_cover = 128;
  options.max_recoveries = 128;
  options.explain = true;
  options.dedup_isomorphic = false;
  Result<InverseChaseResult> all =
      internal::InverseChase(sigma, target, options);
  options.dedup_isomorphic = true;
  Result<InverseChaseResult> deduped =
      internal::InverseChase(sigma, target, options);
  ASSERT_EQ(all.ok(), deduped.ok());
  if (!all.ok()) return;  // a budget trip, the same in both runs

  std::vector<size_t> kept;
  for (size_t i = 0; i < all->recoveries.size(); ++i) {
    bool duplicate = false;
    for (size_t k : kept) {
      duplicate = duplicate || AreIsomorphic(all->recoveries[i],
                                             all->recoveries[k]);
    }
    if (!duplicate) kept.push_back(i);
  }
  ++*finished;
  *dropped += all->recoveries.size() - kept.size();
  if (undeduped != nullptr) *undeduped = all->recoveries;
  ASSERT_EQ(deduped->recoveries.size(), kept.size());
  ASSERT_EQ(deduped->explanations.size(), kept.size());
  for (size_t r = 0; r < kept.size(); ++r) {
    EXPECT_TRUE(
        AreIsomorphic(deduped->recoveries[r], all->recoveries[kept[r]]))
        << "recovery " << r;
    const RecoveryExplanation& want = all->explanations[kept[r]];
    const RecoveryExplanation& got = deduped->explanations[r];
    ASSERT_EQ(got.cover.size(), want.cover.size()) << "explanation " << r;
    for (size_t h = 0; h < want.cover.size(); ++h) {
      EXPECT_EQ(got.cover[h].tgd, want.cover[h].tgd) << "explanation " << r;
    }
  }
}

TEST(MergeDedup, MatchesQuadraticPassOnPaperScenarios) {
  size_t finished = 0;
  size_t dropped = 0;
  auto check = [&](const std::string& name, const DependencySet& sigma,
                   const Instance& target) {
    ExpectDedupMatchesQuadraticPass(name, sigma, target, &finished,
                                    &dropped);
  };
  check("blowup", BlowupScenario::Sigma(), BlowupScenario::Target(2, 3));
  check("triangle", TriangleScenario::Sigma(),
        TriangleScenario::Target(2, 2));
  check("employee", EmployeeScenario::Sigma(),
        EmployeeScenario::Target(2, 2, 2));
  check("projection", ProjectionScenario::Sigma(),
        ProjectionScenario::Target(3));
  check("self_join", SelfJoinScenario::Sigma(),
        SelfJoinScenario::Target(2, 2));
  check("pair", PairScenario::Sigma(), PairScenario::Target(2, 2));
  check("fan", FanScenario::Sigma(), FanScenario::Target(3));
  check("overlap", OverlapScenario::Sigma(), OverlapScenario::Target(2, 2));
  EXPECT_EQ(finished, 8u);
}

TEST(MergeDedup, MatchesQuadraticPassOnGeneratedMappings) {
  size_t finished = 0;
  size_t dropped = 0;
  // One source relation shared by 3-4 tgds: different covers then often
  // yield isomorphic recoveries whose canonical keys differ.
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 7919 + 13);
    const std::string tag = "mdd" + std::to_string(seed) + "_";
    MappingSpec spec;
    spec.num_tgds = 3 + rng.Index(2);
    spec.num_source_relations = 1;
    spec.num_target_relations = 2;
    spec.max_body_atoms = 2;
    spec.max_head_atoms = 2;
    DependencySet sigma = RandomMapping(spec, tag, &rng);
    SourceSpec source_spec;
    source_spec.num_tuples = 3 + rng.Index(3);
    source_spec.num_constants = 4;
    Instance source = RandomSource(sigma, source_spec, tag, &rng);
    for (bool ground : {true, false}) {
      Instance target = ChaseTarget(sigma, source, ground);
      // Small targets with at most one null keep step 7 cheap.
      if (target.size() == 0 || target.size() > 8) continue;
      if (!ground && target.TermsOfKind(TermKind::kNull).size() > 1) continue;
      ExpectDedupMatchesQuadraticPass(
          "seed " + std::to_string(seed) + (ground ? " ground" : " nulls"),
          sigma, target, &finished, &dropped);
    }
  }
  EXPECT_GT(finished, 50u);
  EXPECT_GT(dropped, 20u);  // the dedup had work to do
}

// Generated mappings with small ground targets, through
// ExpectDedupMatchesQuadraticPass. Merge keeps a ground recovery without
// an isomorphism test; these runs pin that against the quadratic pass.
// Each mapping has `spec`'s shape with 2 or 3 tgds.
struct GroundTargetDedup {
  size_t finished = 0;
  size_t dropped = 0;
  // Finished runs with at least two recoveries, all ground.
  size_t all_ground = 0;
  // Finished runs with ground recoveries next to ones holding nulls, and
  // the recoveries the dedup dropped in them.
  size_t mixed = 0;
  size_t mixed_dropped = 0;
};

GroundTargetDedup RunGroundTargetDedup(const std::string& prefix,
                                       MappingSpec spec) {
  GroundTargetDedup out;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed * 7919 + 13);
    const std::string tag = prefix + std::to_string(seed) + "_";
    spec.num_tgds = 2 + rng.Index(2);
    DependencySet sigma = RandomMapping(spec, tag, &rng);
    SourceSpec source_spec;
    source_spec.num_tuples = 3 + rng.Index(3);
    source_spec.num_constants = 4;
    Instance source = RandomSource(sigma, source_spec, tag, &rng);
    Instance target = ChaseTarget(sigma, source, /*ground=*/true);
    if (target.size() == 0 || target.size() > 8) continue;
    const size_t dropped_before = out.dropped;
    std::vector<Instance> all;
    ExpectDedupMatchesQuadraticPass("seed " + std::to_string(seed), sigma,
                                    target, &out.finished, &out.dropped,
                                    &all);
    size_t ground = 0;
    for (const Instance& recovery : all) ground += recovery.IsGround();
    if (all.size() >= 2 && ground == all.size()) ++out.all_ground;
    if (ground > 0 && ground < all.size()) {
      ++out.mixed;
      out.mixed_dropped += out.dropped - dropped_before;
    }
  }
  return out;
}

TEST(MergeDedup, MatchesQuadraticPassOnGeneratedGroundTargets) {
  // Full tgds over unary relations: recoveries are ground.
  MappingSpec spec;
  spec.num_source_relations = 2;
  spec.num_target_relations = 2;
  spec.max_arity = 1;
  spec.max_body_atoms = 1;
  spec.max_head_atoms = 2;
  spec.frontier_prob = 1.0;
  GroundTargetDedup corpus = RunGroundTargetDedup("mdg", spec);
  EXPECT_GT(corpus.finished, 200u);
  EXPECT_GT(corpus.all_ground, 80u);
}

TEST(MergeDedup, MatchesQuadraticPassNextToGroundRecoveries) {
  // Body-only variables and head existentials over two source relations:
  // ground recoveries sit next to ones with nulls, some isomorphic.
  MappingSpec spec;
  spec.num_source_relations = 2;
  spec.num_target_relations = 1;
  spec.max_arity = 2;
  spec.max_body_atoms = 2;
  spec.max_head_atoms = 2;
  GroundTargetDedup corpus = RunGroundTargetDedup("mdm", spec);
  EXPECT_GT(corpus.mixed, 20u);
  EXPECT_GT(corpus.mixed_dropped, 8u);
}

// Prop. 1: is J a universal (resp. canonical) solution for some source?
TEST(Prop1, UniversalForSomeSource) {
  // Under R(x) -> exists z S(x, z), a target with a null witness is
  // universal for {R(a)}; a ground witness is not universal for anything.
  DependencySet sigma = S("Rp1(x) -> exists z: Sp1(x, z)");
  Result<bool> with_null =
      internal::IsUniversalSolutionForSomeSource(sigma, I("{Sp1(a, _Z)}"));
  ASSERT_TRUE(with_null.ok());
  EXPECT_TRUE(*with_null);
  Result<bool> ground =
      internal::IsUniversalSolutionForSomeSource(sigma, I("{Sp1(a, b)}"));
  ASSERT_TRUE(ground.ok());
  EXPECT_FALSE(*ground);
  // With a full tgd the ground target is universal (and canonical).
  DependencySet full = S("Rp2(x) -> Sp2(x)");
  Result<bool> full_ground =
      internal::IsUniversalSolutionForSomeSource(full, I("{Sp2(a)}"));
  ASSERT_TRUE(full_ground.ok());
  EXPECT_TRUE(*full_ground);
}

TEST(Prop1, CanonicalForSomeSource) {
  DependencySet sigma = S("Rp3(x) -> exists z: Sp3(x, z)");
  // The canonical solution has one fresh null per trigger.
  Result<bool> canonical =
      internal::IsCanonicalSolutionForSomeSource(sigma, I("{Sp3(a, _Z1), "
                                                "Sp3(b, _Z2)}"));
  ASSERT_TRUE(canonical.ok());
  EXPECT_TRUE(*canonical);
  // Sharing the null across triggers is universal-ish but not canonical.
  Result<bool> shared =
      internal::IsCanonicalSolutionForSomeSource(sigma, I("{Sp3(a, _Z), "
                                                "Sp3(b, _Z)}"));
  ASSERT_TRUE(shared.ok());
  EXPECT_FALSE(*shared);
  // Invalid targets are neither.
  DependencySet diamond =
      S("Rp4(x) -> Tp4(x); Rp4(x2) -> Sp4(x2); Mp4(x3) -> Sp4(x3)");
  Result<bool> invalid =
      internal::IsUniversalSolutionForSomeSource(diamond, I("{Tp4(a)}"));
  ASSERT_TRUE(invalid.ok());
  EXPECT_FALSE(*invalid);
}

}  // namespace
}  // namespace dxrec
