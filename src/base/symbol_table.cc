#include "base/symbol_table.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>

#include "base/term.h"

namespace dxrec {

uint32_t SymbolTable::Intern(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  if (names_.size() >= limit_) AbortExhausted();
  uint32_t id = static_cast<uint32_t>(names_.size());
  ids_.emplace(names_.emplace_back(name), id);
  return id;
}

int64_t SymbolTable::Lookup(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = ids_.find(name);
  if (it == ids_.end()) return -1;
  return it->second;
}

std::string SymbolTable::Name(uint32_t id) const {
  std::lock_guard<std::mutex> lock(mu_);
  assert(id < names_.size());
  return names_[id];
}

size_t SymbolTable::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return names_.size();
}

void SymbolTable::AbortExhausted() const {
  std::fprintf(stderr,
               "dxrec: symbol table exhausted (all %u ids handed out)\n",
               limit_);
  std::abort();
}

SymbolUniverse::SymbolUniverse()
    : variables(Term::kFirstRenamedVariableId) {}

SymbolUniverse& Symbols() {
  static SymbolUniverse& universe = *new SymbolUniverse();
  return universe;
}

}  // namespace dxrec
