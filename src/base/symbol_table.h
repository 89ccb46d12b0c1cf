// String interning. Terms, relation symbols and variables are represented
// by dense integer ids; the tables here map ids back to names.
#ifndef DXREC_BASE_SYMBOL_TABLE_H_
#define DXREC_BASE_SYMBOL_TABLE_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

namespace dxrec {

// A bidirectional string <-> dense id map. Thread-safe. Ids are assigned in
// interning order starting at 0 and are never recycled; they stay below
// `limit`, the first id the table may not hand out.
class SymbolTable {
 public:
  explicit SymbolTable(uint32_t limit = 0xffffffffu) : limit_(limit) {}
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  // Returns the id for `name`, interning it if new. A hit allocates
  // nothing. Aborts instead of handing out `limit`.
  uint32_t Intern(std::string_view name);

  // Returns the id for `name` or -1 if it has never been interned.
  int64_t Lookup(std::string_view name) const;

  // Returns the name for `id`. `id` must have been returned by Intern.
  std::string Name(uint32_t id) const;

  size_t size() const;

 private:
  [[noreturn]] void AbortExhausted() const;

  const uint32_t limit_;
  mutable std::mutex mu_;
  // Keys view the strings of `names_`, whose deque never moves them.
  std::unordered_map<std::string_view, uint32_t> ids_;
  std::deque<std::string> names_;
};

// Process-wide interning universe shared by all schemas and instances.
// Separate tables keep ids dense per symbol kind. Variable ids stop below
// Term::kFirstRenamedVariableId: the ids above it belong to variables
// renamed apart without interning (VariableRenamer, base/fresh.h).
struct SymbolUniverse {
  SymbolUniverse();

  SymbolTable constants;
  SymbolTable variables;
  SymbolTable relations;
};

// The global universe. Function-local static reference; never destroyed.
SymbolUniverse& Symbols();

}  // namespace dxrec

#endif  // DXREC_BASE_SYMBOL_TABLE_H_
