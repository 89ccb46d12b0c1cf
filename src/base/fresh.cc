#include "base/fresh.h"

#include <cstdio>
#include <cstdlib>

namespace dxrec {

void NullSource::AbortExhausted() {
  std::fprintf(stderr,
               "dxrec: null label space exhausted (NullSource handed out "
               "all 2^32-1 labels)\n");
  std::abort();
}

void VariableRenamer::AbortExhausted() {
  std::fprintf(stderr,
               "dxrec: renamed variable space exhausted (one VariableRenamer "
               "handed out all 2^31-1 ids)\n");
  std::abort();
}

NullSource& FreshNulls() {
  static NullSource& source = *new NullSource();
  return source;
}

Term FreshVariable(const std::string& prefix) {
  static std::atomic<uint64_t>& counter = *new std::atomic<uint64_t>(0);
  uint64_t n = counter.fetch_add(1);
  return Term::Variable("$" + prefix + std::to_string(n));
}

}  // namespace dxrec
