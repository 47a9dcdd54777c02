#include "ir/symbol.h"

#include <atomic>

#include "ir/expr.h"
#include "support/string_util.h"

namespace polaris {

namespace {
std::atomic<int> g_next_symbol_id{1};
}

Dimension::Dimension() = default;
Dimension::Dimension(ExprPtr lo, ExprPtr hi)
    : lower(std::move(lo)), upper(std::move(hi)) {}
Dimension::Dimension(Dimension&&) noexcept = default;
Dimension& Dimension::operator=(Dimension&&) noexcept = default;
Dimension::~Dimension() = default;

Symbol::Symbol(std::string name, Type type, SymbolKind kind)
    : name_(to_lower(name)),
      type_(type),
      kind_(kind),
      id_(g_next_symbol_id.fetch_add(1)) {}

Symbol::~Symbol() = default;

void Symbol::set_param_value(ExprPtr v) { param_value_ = std::move(v); }

void Symbol::add_data_value(ExprPtr v) {
  data_values_.push_back(std::move(v));
}

Symbol* SymbolTable::declare(const std::string& name, Type type,
                             SymbolKind kind) {
  std::string key = to_lower(name);
  p_assert_msg(table_.find(key) == table_.end(),
               "duplicate symbol declaration: " + key);
  auto sym = std::make_unique<Symbol>(key, type, kind);
  Symbol* raw = sym.get();
  raw->slot_ = static_cast<int>(order_.size());
  table_.emplace(key, std::move(sym));
  order_.push_back(raw);
  return raw;
}

Symbol* SymbolTable::lookup(const std::string& name) const {
  auto it = table_.find(to_lower(name));
  return it == table_.end() ? nullptr : it->second.get();
}

Symbol* SymbolTable::get_or_declare(const std::string& name, Type type) {
  if (Symbol* s = lookup(name)) return s;
  return declare(name, type, SymbolKind::Variable);
}

Symbol* SymbolTable::fresh(const std::string& prefix, Type type) {
  std::string base = to_lower(prefix);
  if (!contains(base)) return declare(base, type, SymbolKind::Variable);
  for (int i = 0;; ++i) {
    std::string candidate = base + std::to_string(i);
    if (!contains(candidate))
      return declare(candidate, type, SymbolKind::Variable);
  }
}

bool SymbolTable::contains(const std::string& name) const {
  return table_.find(to_lower(name)) != table_.end();
}

}  // namespace polaris
