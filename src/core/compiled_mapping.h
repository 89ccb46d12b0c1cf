// A mapping Sigma compiled once: Sigma and the store of SUB(Sigma)
// (Def. 8), which depends on Sigma alone. Like the inverse of Arenas et
// al. (*Composition and Inversion of Schema Mappings*), it is built once
// and reused for every target instance.
//
// Held by std::shared_ptr<const CompiledMapping>: every dxrec::Engine
// over it borrows it, and a dxrecd session builds one at open
// (docs/SERVING.md), so SUB(Sigma) is computed by the first call that
// needs it and read by every later call on any of those engines. The
// thread-safe SUB store (util/store_once.h) is the one member that fills
// in after construction.
#ifndef DXREC_CORE_COMPILED_MAPPING_H_
#define DXREC_CORE_COMPILED_MAPPING_H_

#include <utility>

#include "core/subsumption.h"
#include "logic/dependency_set.h"

namespace dxrec {

class CompiledMapping {
 public:
  explicit CompiledMapping(DependencySet sigma) : sigma_(std::move(sigma)) {}
  CompiledMapping(const CompiledMapping&) = delete;
  CompiledMapping& operator=(const CompiledMapping&) = delete;

  const DependencySet& sigma() const { return sigma_; }
  // SUB(Sigma), once some call has completed it (core/subsumption.h).
  SubsumptionCache* subsumption() const { return &subsumption_; }

 private:
  const DependencySet sigma_;
  mutable SubsumptionCache subsumption_;
};

}  // namespace dxrec

#endif  // DXREC_CORE_COMPILED_MAPPING_H_
