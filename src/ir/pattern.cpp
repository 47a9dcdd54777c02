#include "ir/pattern.h"

namespace polaris {

ExprPtr instantiate(const Expression& templ, const Bindings& bindings) {
  if (templ.kind() == ExprKind::Wildcard) {
    const auto& w = static_cast<const Wildcard&>(templ);
    auto it = bindings.find(w.name());
    p_assert_msg(it != bindings.end(),
                 "unbound wildcard in template: " + w.name());
    return it->second->clone();
  }
  ExprPtr copy = templ.clone();
  for (ExprPtr& slot : copy->children())
    slot = instantiate(*slot, bindings);
  return copy;
}

int rewrite_all(ExprPtr& root, const Expression& pattern,
                const Expression& replacement) {
  int count = 0;
  walk_slots(root, [&](ExprPtr& slot) {
    Bindings bindings;
    if (pattern.match(*slot, bindings)) {
      slot = instantiate(replacement, bindings);
      ++count;
    }
  });
  return count;
}

const Expression* find_match(const Expression& e, const Expression& pattern,
                             Bindings* bindings) {
  Bindings local;
  if (pattern.match(e, local)) {
    if (bindings) *bindings = std::move(local);
    return &e;
  }
  for (const ExprPtr& c : e.children()) {
    if (const Expression* hit = find_match(*c, pattern, bindings)) return hit;
  }
  return nullptr;
}

}  // namespace polaris
