#ifndef MRX_GRAPH_SYMBOL_TABLE_H_
#define MRX_GRAPH_SYMBOL_TABLE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace mrx {

/// Dense identifier for an interned element label (tag name).
using LabelId = uint32_t;

/// \brief Interns element labels so the graph and the indexes can compare
/// labels as dense integers.
///
/// Label ids are assigned contiguously from 0 in interning order, so they can
/// be used directly as vector indexes (e.g., for the A(0) partition).
class SymbolTable {
 public:
  SymbolTable() = default;

  /// Returns the id of `name`, interning it if new.
  LabelId Intern(std::string_view name);

  /// Returns the id of `name` if it was interned before, otherwise nullopt.
  std::optional<LabelId> Lookup(std::string_view name) const;

  /// The label string for `id`; `id` must be a valid interned id.
  const std::string& Name(LabelId id) const { return names_[id]; }

  /// Number of distinct labels interned so far.
  size_t size() const { return names_.size(); }

  /// Forgets every label interned after the first `n` (a rolled-back
  /// batch's labels); ids below `n` are unchanged.
  void Truncate(size_t n);

 private:
  std::vector<std::string> names_;
  // Keyed by owned strings (not views into names_) so the table is freely
  // copyable and reallocation-safe.
  std::unordered_map<std::string, LabelId> ids_;
};

}  // namespace mrx

#endif  // MRX_GRAPH_SYMBOL_TABLE_H_
