#include "chase/instance_core.h"

#include "chase/homomorphism.h"

namespace dxrec {

namespace {

// If some atom of `input` is removable (a homomorphism into the instance
// without it exists), returns the retracted image; otherwise nullopt.
std::optional<Instance> RetractOnce(const Instance& input) {
  for (const Atom& atom : input.atoms()) {
    // A ground atom always maps to itself, so it can never be dropped.
    if (atom.IsGround()) continue;
    Instance without;
    for (const Atom& other : input.atoms()) {
      if (!(other == atom)) without.Add(other);
    }
    std::optional<Substitution> h =
        FindInstanceHomomorphism(input, without);
    if (h.has_value()) {
      // Apply the full retraction, which may drop more than one atom.
      return input.Apply(*h);
    }
  }
  return std::nullopt;
}

}  // namespace

Instance ComputeCore(const Instance& input) {
  Instance current = input;
  while (true) {
    std::optional<Instance> retracted = RetractOnce(current);
    if (!retracted.has_value()) return current;
    current = std::move(*retracted);
  }
}

bool IsCore(const Instance& input) {
  return !RetractOnce(input).has_value();
}

}  // namespace dxrec
