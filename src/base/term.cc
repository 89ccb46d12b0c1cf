#include "base/term.h"

#include "base/symbol_table.h"

namespace dxrec {

Term Term::Constant(std::string_view name) {
  return Term(TermKind::kConstant, Symbols().constants.Intern(name));
}

Term Term::Variable(std::string_view name) {
  return Term(TermKind::kVariable, Symbols().variables.Intern(name));
}

Term Term::Null(uint32_t label) { return Term(TermKind::kNull, label); }

std::string Term::ToString() const {
  switch (kind_) {
    case TermKind::kConstant:
      return Symbols().constants.Name(id_);
    case TermKind::kVariable:
      if (id_ >= kFirstRenamedVariableId) {
        return "$r" + std::to_string(id_ - kFirstRenamedVariableId);
      }
      return Symbols().variables.Name(id_);
    case TermKind::kNull:
      return "_N" + std::to_string(id_);
  }
  return "<invalid>";
}

}  // namespace dxrec
