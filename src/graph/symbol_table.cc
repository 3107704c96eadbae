#include "graph/symbol_table.h"

namespace mrx {

LabelId SymbolTable::Intern(std::string_view name) {
  std::string key(name);
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  LabelId id = static_cast<LabelId>(names_.size());
  names_.push_back(key);
  ids_.emplace(std::move(key), id);
  return id;
}

std::optional<LabelId> SymbolTable::Lookup(std::string_view name) const {
  auto it = ids_.find(std::string(name));
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

void SymbolTable::Truncate(size_t n) {
  while (names_.size() > n) {
    ids_.erase(names_.back());
    names_.pop_back();
  }
}

}  // namespace mrx
