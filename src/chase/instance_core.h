// Cores of instances with nulls.
//
// The core of I is the smallest sub-instance C of I with a homomorphism
// I -> C (a retract); it is unique up to isomorphism and is the canonical
// representative of I's homomorphic-equivalence class. Recoveries and
// chase results often carry redundant null-padded atoms; taking cores
// shrinks them without changing any certain answer.
//
// Algorithm: greedy single-atom retraction. If I retracts onto a proper
// sub-instance C at all, then composing the retraction with the
// inclusion shows some single atom is removable (I -> I \ {a}), so
// repeatedly removing removable atoms terminates exactly at the core.
// Each step is one homomorphism search; worst case O(|I|^2) searches.
#ifndef DXREC_CHASE_INSTANCE_CORE_H_
#define DXREC_CHASE_INSTANCE_CORE_H_

#include "relational/instance.h"

namespace dxrec {

// The core of `input`. Ground instances are their own cores.
Instance ComputeCore(const Instance& input);

// True if `input` equals its core (no proper retraction exists).
bool IsCore(const Instance& input);

}  // namespace dxrec

#endif  // DXREC_CHASE_INSTANCE_CORE_H_
