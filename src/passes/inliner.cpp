#include "passes/inliner.h"

#include <algorithm>
#include <map>
#include <set>

#include "ir/build.h"
#include "symbolic/simplify.h"

namespace polaris {

namespace {

/// How a formal parameter maps to caller terms at one call site.
struct FormalMap {
  // Scalar formal: the replacement expression (actual or temp).
  ExprPtr scalar;
  // Array formal: the actual array plus an optional starting offset for
  // linearized access (actual must then be rank 1).
  Symbol* array = nullptr;
  bool linearize = false;
  ExprPtr linear_base;  ///< 0-based offset of the formal's first element
};

class Expander {
 public:
  Expander(Program& program, ProgramUnit& top, const Options& opts,
           Diagnostics& diags)
      : program_(program), top_(top), opts_(opts), diags_(diags) {}

  InlineResult run() {
    InlineResult result;
    std::set<int> skipped_ids;
    for (int round = 0; round < opts_.max_inline_depth * 64; ++round) {
      CallStmt* call = nullptr;
      for (Statement* s : top_.stmts()) {
        if (s->kind() != StmtKind::Call) continue;
        if (skipped_ids.count(s->id())) continue;
        auto* c = static_cast<CallStmt*>(s);
        ProgramUnit* callee = program_.find(c->name());
        if (callee != nullptr && callee->kind() == UnitKind::Subroutine) {
          call = c;
          break;
        }
      }
      if (call == nullptr) break;
      if (expand(call)) {
        ++result.expanded;
      } else {
        ++result.skipped;
        skipped_ids.insert(call->id());
      }
    }
    return result;
  }

 private:
  bool expand(CallStmt* call);

  /// Compile-time extent of one dimension (upper - lower + 1) as an
  /// expression in callee terms.
  static ExprPtr extent_expr(const Dimension& d) {
    ExprPtr lo = d.lower ? d.lower->clone() : ib::ic(1);
    if (!d.upper) return nullptr;  // assumed size
    return simplify(*ib::add(ib::sub(d.upper->clone(), std::move(lo)),
                             ib::ic(1)));
  }

  Program& program_;
  ProgramUnit& top_;
  const Options& opts_;
  Diagnostics& diags_;
  int temp_counter_ = 0;
};

bool Expander::expand(CallStmt* call) {
  ProgramUnit* callee = program_.find(call->name());
  p_assert(callee != nullptr);
  const std::string context = top_.name() + "/" + call->name();

  if (call->args().size() != callee->formals().size()) {
    diags_.warning("inline", context, "argument count mismatch");
    return false;
  }

  // Work object: a fresh clone of the callee (the template step and the
  // work-copy step collapse, since clone() is already side-effect free).
  std::unique_ptr<ProgramUnit> work = callee->clone(callee->name() + "_w");

  // --- symbol remapping -------------------------------------------------------
  // Locals get fresh names in the caller; commons unify by block+name.
  SymbolMap<Symbol*> sym_map;           // locals & commons
  SymbolMap<FormalMap> formal_map;      // formals

  for (size_t i = 0; i < work->formals().size(); ++i) {
    Symbol* formal = work->formals()[i];
    const Expression& actual = *call->args()[i];
    FormalMap fm;
    if (!formal->is_array()) {
      // Scalar formal.
      if (actual.kind() == ExprKind::VarRef ||
          actual.kind() == ExprKind::ArrayRef) {
        fm.scalar = actual.clone();
      } else {
        // Expression actual: bind to a caller temp (callee writes to it
        // are Fortran-undefined behaviour anyway).
        Symbol* temp = top_.symtab().fresh(
            callee->name() + "_a" + std::to_string(temp_counter_++),
            formal->type());
        std::vector<StmtPtr> init;
        init.push_back(
            std::make_unique<AssignStmt>(ib::var(temp), actual.clone()));
        top_.stmts().splice_before(call, std::move(init));
        fm.scalar = ib::var(temp);
      }
    } else {
      // Array formal: actual must be a whole array (VarRef of an array).
      if (actual.kind() != ExprKind::VarRef ||
          !static_cast<const VarRef&>(actual).symbol()->is_array()) {
        diags_.warning("inline", context,
                       "unsupported array actual for formal " +
                           formal->name());
        return false;
      }
      Symbol* actual_sym = static_cast<const VarRef&>(actual).symbol();
      fm.array = actual_sym;
      // Conforming when ranks match (bounds assumed compatible — the PF77
      // subset convention); otherwise linearize into a rank-1 actual.
      if (actual_sym->rank() != formal->rank()) {
        if (actual_sym->rank() != 1) {
          diags_.warning("inline", context,
                         "cannot linearize into rank-" +
                             std::to_string(actual_sym->rank()) +
                             " actual " + actual_sym->name());
          return false;
        }
        fm.linearize = true;
        fm.linear_base = ib::ic(0);
      }
    }
    formal_map.emplace(formal, std::move(fm));
  }

  for (Symbol* sym : work->symtab().symbols()) {
    if (sym->is_formal()) continue;
    if (sym->in_common()) {
      Symbol* existing = top_.symtab().lookup(sym->name());
      if (existing != nullptr &&
          existing->common_block() == sym->common_block()) {
        sym_map[sym] = existing;
      } else if (existing == nullptr) {
        Symbol* n = top_.symtab().declare(sym->name(), sym->type(),
                                          sym->kind());
        n->set_common_block(sym->common_block());
        sym_map[sym] = n;  // dims remapped below
      } else {
        diags_.warning("inline", context,
                       "common member clashes with caller symbol " +
                           sym->name());
        return false;
      }
    } else {
      Symbol* n = top_.symtab().fresh(callee->name() + "_" + sym->name(),
                                      sym->type());
      n->set_kind(sym->kind());
      if (sym->param_value())
        n->set_param_value(sym->param_value()->clone());
      sym_map[sym] = n;
    }
  }

  // Expression rewriter: formals -> actuals, locals/commons -> new syms.
  std::function<void(ExprPtr&)> rewrite = [&](ExprPtr& e) {
    // Children first so subscripts are already in caller terms.
    for (ExprPtr& slot : e->children()) rewrite(slot);

    if (e->kind() == ExprKind::VarRef) {
      Symbol* s = static_cast<VarRef&>(*e).symbol();
      auto fit = formal_map.find(s);
      if (fit != formal_map.end()) {
        if (fit->second.scalar) {
          e = fit->second.scalar->clone();
        } else {
          e = ib::var(fit->second.array);  // whole-array pass-through
        }
        return;
      }
      auto sit = sym_map.find(s);
      if (sit != sym_map.end())
        static_cast<VarRef&>(*e).set_symbol(sit->second);
      return;
    }
    if (e->kind() == ExprKind::ArrayRef) {
      auto& ar = static_cast<ArrayRef&>(*e);
      Symbol* s = ar.symbol();
      auto fit = formal_map.find(s);
      if (fit != formal_map.end()) {
        p_assert(fit->second.array != nullptr);
        if (!fit->second.linearize) {
          ar.set_symbol(fit->second.array);
        } else {
          // Linearize: offset = sum (sub_d - lo_d) * stride_d, strides
          // from the *formal*'s declared shape.
          ExprPtr offset = fit->second.linear_base->clone();
          ExprPtr stride = ib::ic(1);
          for (int d = 0; d < ar.rank(); ++d) {
            const Dimension& dim = s->dims()[static_cast<size_t>(d)];
            ExprPtr lo = dim.lower ? dim.lower->clone() : ib::ic(1);
            rewrite(lo);
            ExprPtr term = ib::mul(
                ib::sub(ar.subscripts()[static_cast<size_t>(d)]->clone(),
                        std::move(lo)),
                stride->clone());
            offset = ib::add(std::move(offset), std::move(term));
            ExprPtr ext = extent_expr(dim);
            if (ext == nullptr && d + 1 < ar.rank()) {
              // assumed-size inner dimension: cannot compute strides
              offset = nullptr;
              break;
            }
            if (ext) {
              rewrite(ext);
              stride = ib::mul(std::move(stride), std::move(ext));
            }
          }
          p_assert_msg(offset != nullptr,
                       "assumed-size formal cannot be linearized");
          ExprPtr sub = simplify(*ib::add(std::move(offset), ib::ic(1)));
          e = ib::aref(fit->second.array, std::move(sub));
        }
        return;
      }
      auto sit = sym_map.find(s);
      if (sit != sym_map.end()) ar.set_symbol(sit->second);
      return;
    }
  };

  // Remap dims of newly declared locals/commons (may reference formals).
  for (auto& [old_sym, new_sym] : sym_map) {
    if (!old_sym->is_array() || !new_sym->dims().empty()) continue;
    std::vector<Dimension> dims;
    for (const Dimension& d : old_sym->dims()) {
      ExprPtr lo = d.lower ? d.lower->clone() : nullptr;
      ExprPtr hi = d.upper ? d.upper->clone() : nullptr;
      if (lo) rewrite(lo);
      if (hi) rewrite(hi);
      dims.emplace_back(std::move(lo), std::move(hi));
    }
    new_sym->set_dims(std::move(dims));
    for (const ExprPtr& dv : old_sym->data_values())
      new_sym->add_data_value(dv->clone());
  }

  // --- statement fragment -------------------------------------------------------
  if (work->stmts().empty()) {
    top_.stmts().remove(call);
    return true;
  }
  std::vector<StmtPtr> frag =
      work->stmts().clone_range(work->stmts().first(), work->stmts().last());

  // Label isolation: offset all labels/targets past the caller's maximum.
  int label_base = ((top_.max_label() / 1000) + 1) * 1000;
  bool has_return = false;
  int orig_max_label = 0;
  for (StmtPtr& s : frag) {
    orig_max_label = std::max(orig_max_label, s->label());
    if (s->kind() == StmtKind::Goto)
      orig_max_label = std::max(
          orig_max_label, static_cast<GotoStmt*>(s.get())->target());
  }
  for (StmtPtr& s : frag) {
    if (s->label() != 0) s->set_label(s->label() + label_base);
    if (s->kind() == StmtKind::Goto) {
      auto* g = static_cast<GotoStmt*>(s.get());
      int lab = s->label();
      s = std::make_unique<GotoStmt>(g->target() + label_base);
      s->set_label(lab);
    }
    if (s->kind() == StmtKind::Return) has_return = true;
  }
  int exit_label = label_base + orig_max_label + 1;
  if (has_return) {
    for (StmtPtr& s : frag) {
      if (s->kind() == StmtKind::Return) {
        int lab = s->label();
        s = std::make_unique<GotoStmt>(exit_label);
        s->set_label(lab);
      }
    }
    auto exit_stmt = std::make_unique<ContinueStmt>();
    exit_stmt->set_label(exit_label);
    frag.push_back(std::move(exit_stmt));
  }

  // Rewrite all expressions and DO indices.
  for (StmtPtr& s : frag) {
    if (s->kind() == StmtKind::Do) {
      auto* d = static_cast<DoStmt*>(s.get());
      auto sit = sym_map.find(d->index());
      if (sit != sym_map.end()) {
        d->set_index(sit->second);
      } else {
        auto fit = formal_map.find(d->index());
        if (fit != formal_map.end()) {
          diags_.warning("inline", context,
                         "formal used as DO index is unsupported");
          return false;
        }
      }
    }
    for (ExprPtr& slot : s->expr_slots()) rewrite(slot);
  }

  top_.stmts().splice_before(call, std::move(frag));
  top_.stmts().remove(call);
  diags_.note("inline", context, "expanded");
  return true;
}

}  // namespace

InlineResult inline_calls(Program& program, const Options& opts,
                          Diagnostics& diags, ProgramUnit* top) {
  InlineResult result;
  if (!opts.inline_expansion) return result;
  if (top == nullptr) top = program.main();
  Expander expander(program, *top, opts, diags);
  return expander.run();
}

}  // namespace polaris
