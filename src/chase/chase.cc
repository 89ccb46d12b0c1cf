#include "chase/chase.h"

#include <unordered_set>
#include <utility>

#include "chase/homomorphism.h"
#include "obs/alloc.h"
#include "obs/events.h"
#include "obs/metrics.h"
#include "obs/stats.h"
#include "obs/trace.h"
#include "resilience/execution_context.h"

namespace dxrec {

std::string Trigger::ToString(const DependencySet& sigma) const {
  return "[tgd " + std::to_string(tgd) + " " +
         sigma.at(tgd).ToString() + " via " + hom.ToString() + "]";
}

std::vector<Trigger> FindTriggers(const DependencySet& sigma,
                                  const Instance& input,
                                  const resilience::ExecutionContext* context) {
  obs::alloc::AllocScope alloc_scope("chase");
  std::vector<Trigger> out;
  HomSearchOptions options;
  options.context = context;
  // Per-dependency trigger attribution: body-match searches land in the
  // dependency's own SearchStats (shadowing any enclosing sink), and
  // every body hom found counts as a tested trigger.
  obs::stats::ChaseStats* chase_stats =
      obs::stats::Enabled() ? obs::stats::CurrentChaseSink() : nullptr;
  if (chase_stats != nullptr) chase_stats->EnsureDeps(sigma.size());
  for (TgdId id = 0; id < sigma.size(); ++id) {
    if (context != nullptr &&
        context->stop_cause() != resilience::StopCause::kNone) {
      break;
    }
    obs::stats::ScopedSearch match_scope(
        chase_stats != nullptr ? &chase_stats->deps[id].match : nullptr);
    std::vector<Substitution> homs =
        FindHomomorphisms(sigma.at(id).body(), input, options);
    if (chase_stats != nullptr) {
      chase_stats->deps[id].triggers_tested += homs.size();
    }
    for (Substitution& h : homs) {
      out.push_back(Trigger{id, std::move(h)});
    }
  }
  if (obs::Enabled()) {
    static obs::Counter* found =
        obs::MetricsRegistry::Global().GetCounter("chase.triggers_found");
    found->Add(out.size());
  }
  return out;
}

namespace {

// Unifies one tgd body atom against a concrete delta tuple: constants
// must agree, variables bind (consistently on repeats). The binding
// seeds the full-body search so the found homomorphisms are exactly
// those mapping the pivot atom onto the delta tuple.
bool UnifyPivot(const Atom& pattern, const Atom& tuple, Substitution* seed) {
  if (pattern.relation() != tuple.relation() ||
      pattern.arity() != tuple.arity()) {
    return false;
  }
  for (uint32_t pos = 0; pos < pattern.arity(); ++pos) {
    Term p = pattern.arg(pos);
    Term t = tuple.arg(pos);
    if (p.is_variable()) {
      if (seed->Binds(p)) {
        if (seed->Apply(p) != t) return false;
      } else {
        seed->Set(p, t);
      }
    } else if (p != t) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<Trigger> FindTriggersDelta(
    const DependencySet& sigma, const Instance& full, const Instance& delta,
    const resilience::ExecutionContext* context) {
  obs::alloc::AllocScope alloc_scope("chase");
  std::vector<Trigger> out;
  obs::stats::ChaseStats* chase_stats =
      obs::stats::Enabled() ? obs::stats::CurrentChaseSink() : nullptr;
  if (chase_stats != nullptr) chase_stats->EnsureDeps(sigma.size());
  for (TgdId id = 0; id < sigma.size(); ++id) {
    if (context != nullptr &&
        context->stop_cause() != resilience::StopCause::kNone) {
      break;
    }
    obs::stats::ScopedSearch match_scope(
        chase_stats != nullptr ? &chase_stats->deps[id].match : nullptr);
    const std::vector<Atom>& body = sigma.at(id).body();
    // A trigger touching k delta atoms is found under k pivots; keep
    // the first occurrence (pivot-major order is deterministic).
    std::unordered_set<std::string> seen;
    uint64_t tested = 0;
    for (size_t pivot = 0; pivot < body.size(); ++pivot) {
      for (const Atom& tuple : delta.atoms()) {
        Substitution seed;
        if (!UnifyPivot(body[pivot], tuple, &seed)) continue;
        HomSearchOptions options;
        options.context = context;
        options.fixed = std::move(seed);
        std::vector<Substitution> homs =
            FindHomomorphisms(body, full, options);
        for (Substitution& h : homs) {
          if (!seen.insert(h.ToString()).second) continue;
          ++tested;
          out.push_back(Trigger{id, std::move(h)});
        }
      }
    }
    if (chase_stats != nullptr) {
      chase_stats->deps[id].triggers_tested += tested;
    }
  }
  if (obs::Enabled()) {
    static obs::Counter* found =
        obs::MetricsRegistry::Global().GetCounter("chase.triggers_found");
    found->Add(out.size());
  }
  return out;
}

Substitution FireTrigger(const DependencySet& sigma, const Trigger& trigger,
                         NullSource* nulls, Instance* out) {
  const Tgd& tgd = sigma.at(trigger.tgd);
  Substitution extended = trigger.hom;
  for (Term z : tgd.head_existential_vars()) {
    extended.Set(z, nulls->Fresh());
  }
  for (const Atom& a : tgd.head()) {
    out->Add(a.Apply(extended));
  }
  return extended;
}

Instance Chase(const DependencySet& sigma, const Instance& input,
               NullSource* nulls,
               const resilience::ExecutionContext* context,
               InstanceLayout) {
  return ChaseTriggers(sigma, input, FindTriggers(sigma, input, context),
                       nulls, context);
}

Instance ChaseSemiNaive(const DependencySet& sigma, const Instance& input,
                        NullSource* nulls,
                        const resilience::ExecutionContext* context) {
  obs::alloc::AllocScope alloc_scope("chase");
  Instance generated;
  Instance full = input;
  Instance delta = input;
  while (!delta.empty()) {
    if (context != nullptr &&
        context->stop_cause() != resilience::StopCause::kNone) {
      break;
    }
    std::vector<Trigger> triggers =
        FindTriggersDelta(sigma, full, delta, context);
    if (triggers.empty()) break;
    // ChaseTriggers owns the per-round stats (rounds, deltas, firings).
    Instance round = ChaseTriggers(sigma, full, triggers, nulls, context);
    Instance next;
    for (const Atom& a : round.atoms()) {
      if (full.Add(a)) {
        generated.Add(a);
        next.Add(a);
      }
    }
    delta = std::move(next);
  }
  return generated;
}

Instance ChaseTriggers(const DependencySet& sigma, const Instance& input,
                       const std::vector<Trigger>& triggers,
                       NullSource* nulls,
                       const resilience::ExecutionContext* context) {
  (void)input;  // triggers already reference the input's terms
  obs::alloc::AllocScope alloc_scope("chase");
  Instance out;
  uint64_t fired_count = 0;
  obs::stats::ChaseStats* chase_stats =
      obs::stats::Enabled() ? obs::stats::CurrentChaseSink() : nullptr;
  if (chase_stats != nullptr) chase_stats->EnsureDeps(sigma.size());
  for (const Trigger& trigger : triggers) {
    // Cheap batch check; one stop-cause load per 256 firings.
    if (context != nullptr && (fired_count & 0xFF) == 0 &&
        context->stop_cause() != resilience::StopCause::kNone) {
      break;
    }
    ++fired_count;
    const size_t before = out.size();
    FireTrigger(sigma, trigger, nulls, &out);
    if (chase_stats != nullptr) {
      obs::stats::DependencyStats& dep = chase_stats->deps[trigger.tgd];
      ++dep.triggers_fired;
      dep.tuples_added += out.size() - before;
    }
  }
  if (chase_stats != nullptr) {
    // One round: everything a semi-naive evaluator would treat as the
    // next delta (the s-t chase of Def. 9 saturates in a single pass).
    ++chase_stats->rounds;
    chase_stats->round_deltas.push_back(out.size());
    chase_stats->tuples_added += out.size();
  }
  obs::stats::NoteChaseRound(triggers.size(), fired_count, out.size());
  if (obs::Enabled()) {
    static obs::Counter* fired =
        obs::MetricsRegistry::Global().GetCounter("chase.triggers_fired");
    fired->Add(fired_count);
  }
  if (obs::EventsEnabled()) {
    obs::Emit("chase.run", {{"triggers", static_cast<int64_t>(fired_count)},
                            {"atoms", static_cast<int64_t>(out.size())}});
  }
  return out;
}

bool Satisfies(const DependencySet& sigma, const Instance& source,
               const Instance& target) {
  for (TgdId id = 0; id < sigma.size(); ++id) {
    const Tgd& tgd = sigma.at(id);
    bool all_extend = true;
    ForEachHomomorphism(
        tgd.body(), source, HomSearchOptions(),
        [&](const Substitution& h) {
          HomSearchOptions head_options;
          // The frontier is pinned by the body match; head existentials
          // are free.
          head_options.fixed = h;
          if (!FindHomomorphism(tgd.head(), target, head_options)
                   .has_value()) {
            all_extend = false;
            return false;  // stop early
          }
          return true;
        });
    if (!all_extend) return false;
  }
  return true;
}

}  // namespace dxrec
