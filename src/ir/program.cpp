#include "ir/program.h"

#include <map>

#include "support/string_util.h"

namespace polaris {

ProgramUnit::ProgramUnit(UnitKind kind, std::string name)
    : kind_(kind), name_(to_lower(name)) {}

void ProgramUnit::add_formal(Symbol* s) {
  p_assert(s != nullptr);
  p_assert_msg(symtab_.lookup(s->name()) == s,
               "formal parameter not declared in this unit's symbol table");
  s->set_formal(true);
  formals_.push_back(s);
}

std::unique_ptr<ProgramUnit> ProgramUnit::clone(
    const std::string& new_name) const {
  auto copy = std::make_unique<ProgramUnit>(kind_, new_name);
  SymbolMap<Symbol*> map;

  // First pass: declare all symbols (dims and values cloned below so that
  // forward references between symbols resolve through `map`).
  for (Symbol* old_sym : symtab_.symbols()) {
    Symbol* new_sym =
        copy->symtab_.declare(old_sym->name(), old_sym->type(),
                              old_sym->kind());
    new_sym->set_formal(old_sym->is_formal());
    new_sym->set_common_block(old_sym->common_block());
    map[old_sym] = new_sym;
  }

  // Second pass: clone dimension bounds, parameter values and data values,
  // remapping symbol references into the new table.
  for (Symbol* old_sym : symtab_.symbols()) {
    Symbol* new_sym = map[old_sym];
    std::vector<Dimension> dims;
    for (const Dimension& d : old_sym->dims()) {
      ExprPtr lo = d.lower ? d.lower->clone() : nullptr;
      ExprPtr hi = d.upper ? d.upper->clone() : nullptr;
      if (lo) remap_symbols(*lo, map);
      if (hi) remap_symbols(*hi, map);
      dims.emplace_back(std::move(lo), std::move(hi));
    }
    new_sym->set_dims(std::move(dims));
    if (old_sym->param_value()) {
      ExprPtr v = old_sym->param_value()->clone();
      remap_symbols(*v, map);
      new_sym->set_param_value(std::move(v));
    }
    for (const ExprPtr& dv : old_sym->data_values()) {
      ExprPtr v = dv->clone();
      remap_symbols(*v, map);
      new_sym->add_data_value(std::move(v));
    }
  }

  // Statements: clone the whole list and remap.  ParallelInfo annotations
  // also carry raw Symbol* (privates, reductions, speculative arrays) and
  // must point into the new table — the fault-isolation checkpoints rely
  // on clones being fully self-contained.
  if (!stmts_.empty()) {
    std::vector<StmtPtr> frag =
        stmts_.clone_range(stmts_.first(), stmts_.last());
    // Clones keep the originals' ids: a unit restored from its checkpoint
    // must keep its loop names ("do#<id>") bit-exactly, and under `-jobs=N` a
    // fresh id would depend on what other workers allocated concurrently.
    {
      Statement* orig = stmts_.first();
      for (StmtPtr& s : frag) {
        s->set_id(orig->id());
        orig = orig->next();
      }
    }
    auto remap_sym = [&map](Symbol*& sym) {
      auto it = map.find(sym);
      if (it != map.end()) sym = it->second;
    };
    for (StmtPtr& s : frag) {
      if (s->kind() == StmtKind::Do) {
        auto* d = static_cast<DoStmt*>(s.get());
        auto it = map.find(d->index());
        if (it != map.end()) d->set_index(it->second);
        for (Symbol*& v : d->par.private_vars) remap_sym(v);
        for (Symbol*& v : d->par.lastvalue_vars) remap_sym(v);
        for (Symbol*& v : d->par.speculative_arrays) remap_sym(v);
        for (ReductionInfo& r : d->par.reductions) remap_sym(r.var);
      }
      for (ExprPtr& slot : s->expr_slots()) remap_symbols(*slot, map);
    }
    copy->stmts_.splice_back(std::move(frag));
  }

  for (Symbol* f : formals_) copy->formals_.push_back(map.at(f));
  if (result_) copy->result_ = map.at(result_);
  return copy;
}

int ProgramUnit::max_label() const {
  int mx = 0;
  for (Statement* s : stmts_) mx = std::max(mx, s->label());
  return mx;
}

ProgramUnit* Program::add_unit(std::unique_ptr<ProgramUnit> unit) {
  p_assert(unit != nullptr);
  p_assert_msg(find(unit->name()) == nullptr,
               "duplicate program unit: " + unit->name());
  units_.push_back(std::move(unit));
  return units_.back().get();
}

ProgramUnit* Program::find(const std::string& name) const {
  std::string key = to_lower(name);
  for (const auto& u : units_)
    if (u->name() == key) return u.get();
  return nullptr;
}

ProgramUnit* Program::main() const {
  ProgramUnit* found = nullptr;
  for (const auto& u : units_) {
    if (u->kind() == UnitKind::Program) {
      p_assert_msg(found == nullptr, "multiple main program units");
      found = u.get();
    }
  }
  p_assert_msg(found != nullptr, "program has no main unit");
  return found;
}

void Program::merge(Program&& other) {
  for (auto& u : other.units_) add_unit(std::move(u));
  other.units_.clear();
}

void Program::renumber_ids() {
  int next_stmt = 1;
  int next_sym = 1;
  for (const auto& unit : units_) {
    for (Statement* s = unit->stmts().first(); s != nullptr; s = s->next())
      s->set_id(next_stmt++);
    for (Symbol* s : unit->symtab().symbols()) s->set_id(next_sym++);
  }
}

ProgramUnit* Program::replace_unit_at(std::size_t index,
                                      std::unique_ptr<ProgramUnit> replacement) {
  p_assert(index < units_.size() && replacement != nullptr);
  units_[index] = std::move(replacement);
  return units_[index].get();
}

}  // namespace polaris
