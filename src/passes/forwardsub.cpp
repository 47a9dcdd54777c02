#include "passes/forwardsub.h"

#include <map>
#include <set>

#include "symbolic/simplify.h"

namespace polaris {

namespace {

/// Node-count cap: substitution must not blow expressions up.
int node_count(const Expression& e) {
  int n = 0;
  walk(e, [&](const Expression&) { ++n; });
  return n;
}

class ForwardSub {
 public:
  explicit ForwardSub(ProgramUnit& unit) : unit_(unit) {}

  int run() {
    process_region(unit_.stmts().first(), nullptr);
    return rewrites_;
  }

 private:
  struct Definition {
    ExprPtr value;                  // fully substituted rhs at def point
    SymbolSet operands;     // scalar operands (kill on write)
    SymbolSet arrays;       // arrays read (kill on array write)
  };

  void kill_dependents(Symbol* written, bool is_array) {
    for (auto it = avail_.begin(); it != avail_.end();) {
      bool dead = it->first == written ||
                  (!is_array && it->second.operands.count(written)) ||
                  (is_array && it->second.arrays.count(written));
      it = dead ? avail_.erase(it) : ++it;
    }
  }

  void kill_all() { avail_.clear(); }

  /// Deep copy of the availability map (Definition owns its value tree).
  SymbolMap<Definition> snapshot() const {
    SymbolMap<Definition> out;
    for (const auto& [sym, d] : avail_) {
      Definition c;
      c.value = d.value->clone();
      c.operands = d.operands;
      c.arrays = d.arrays;
      out.emplace(sym, std::move(c));
    }
    return out;
  }

  void substitute_into(ExprPtr& slot) {
    for (auto& [sym, def] : avail_) {
      if (!slot->references(sym)) continue;
      if (node_count(*def.value) > 24) continue;
      rewrites_ += replace_var(slot, sym, *def.value);
    }
    simplify_in_place(slot);
  }

  /// Records a definition if it is propagatable; kills otherwise.
  void record(AssignStmt* a) {
    Symbol* target = a->target();
    bool scalar = a->lhs().kind() == ExprKind::VarRef;
    // Substitute into the statement first (rhs then lhs subscripts),
    // using pre-statement availability.
    substitute_into(a->rhs_slot());
    if (!scalar) {
      auto& lhs = static_cast<ArrayRef&>(*a->lhs_slot());
      for (ExprPtr& sub : lhs.children()) substitute_into(sub);
    }
    kill_dependents(target, !scalar);
    if (!scalar) return;

    // Propagatable: rhs free of user function calls and of the target.
    const Expression& rhs = a->rhs();
    if (rhs.references(target)) return;
    bool has_call = rhs.contains([](const Expression& e) {
      return e.kind() == ExprKind::FuncCall;
    });
    if (has_call) return;  // conservative: even intrinsics stay put

    Definition def;
    def.value = rhs.clone();
    walk(rhs, [&](const Expression& e) {
      if (e.kind() == ExprKind::VarRef)
        def.operands.insert(static_cast<const VarRef&>(e).symbol());
      else if (e.kind() == ExprKind::ArrayRef)
        def.arrays.insert(static_cast<const ArrayRef&>(e).symbol());
    });
    avail_[target] = std::move(def);
  }

  /// Walks [first, stop) at one structural level.
  void process_region(Statement* first, Statement* stop) {
    for (Statement* s = first; s != stop && s != nullptr;) {
      // Any labeled statement is a potential control-flow join: nothing
      // known before it survives (conservative even for DO terminators).
      if (s->label() != 0) kill_all();
      switch (s->kind()) {
        case StmtKind::Assign:
          record(static_cast<AssignStmt*>(s));
          s = s->next();
          break;
        case StmtKind::Do: {
          auto* d = static_cast<DoStmt*>(s);
          for (ExprPtr& slot : d->expr_slots()) substitute_into(slot);
          // Inside the loop, definitions from before it would need proof
          // that the body never redefines them (later iterations would
          // otherwise see body values) — conservatively start fresh and
          // process the body in its own scope.
          auto saved = std::move(avail_);
          avail_.clear();
          process_region(d->next(), d->follow());
          avail_ = std::move(saved);
          // Kill defs invalidated by the loop body or its index.
          for (Statement* t = d; t != d->follow()->next(); t = t->next()) {
            if (t->kind() == StmtKind::Assign) {
              auto* a = static_cast<AssignStmt*>(t);
              kill_dependents(a->target(),
                              a->lhs().kind() == ExprKind::ArrayRef);
            } else if (t->kind() == StmtKind::Do) {
              kill_dependents(static_cast<DoStmt*>(t)->index(), false);
            } else if (t->kind() == StmtKind::Call) {
              kill_all();
              break;
            }
          }
          s = d->follow()->next();
          break;
        }
        case StmtKind::If: {
          auto* ifs = static_cast<IfStmt*>(s);
          substitute_into(ifs->cond_slot());
          // Each arm runs as its own region on a copy of the current
          // availability (its definitions are conditional and die at the
          // END IF); afterwards everything the chain may write is killed.
          Statement* arm = ifs;
          while (arm != ifs->end()) {
            Statement* term = nullptr;
            if (arm->kind() == StmtKind::If) {
              term = static_cast<IfStmt*>(arm)->next_arm();
            } else if (arm->kind() == StmtKind::ElseIf) {
              substitute_into(static_cast<ElseIfStmt*>(arm)->cond_slot());
              term = static_cast<ElseIfStmt*>(arm)->next_arm();
            } else {
              term = ifs->end();
            }
            auto saved = snapshot();
            process_region(arm->next(), term);
            avail_ = std::move(saved);
            arm = term;
          }
          for (Statement* t = ifs->next(); t != ifs->end(); t = t->next()) {
            if (t->kind() == StmtKind::Assign) {
              auto* a = static_cast<AssignStmt*>(t);
              kill_dependents(a->target(),
                              a->lhs().kind() == ExprKind::ArrayRef);
            } else if (t->kind() == StmtKind::Do) {
              kill_dependents(static_cast<DoStmt*>(t)->index(), false);
            } else if (t->kind() == StmtKind::Call) {
              kill_all();
              break;
            }
          }
          s = ifs->end()->next();
          break;
        }
        case StmtKind::Call:
          for (ExprPtr& slot : s->expr_slots()) substitute_into(slot);
          kill_all();
          s = s->next();
          break;
        case StmtKind::Goto:
        case StmtKind::Continue:
          s = s->next();
          break;
        default:
          for (ExprPtr& slot : s->expr_slots()) substitute_into(slot);
          s = s->next();
          break;
      }
    }
  }

  ProgramUnit& unit_;
  SymbolMap<Definition> avail_;
  int rewrites_ = 0;
};

}  // namespace

int forward_substitute(ProgramUnit& unit, const Options& opts,
                       Diagnostics& diags) {
  if (!opts.forward_substitution) return 0;
  ForwardSub fs(unit);
  int n = fs.run();
  if (n > 0)
    diags.note("forwardsub", unit.name(),
               std::to_string(n) + " scalar uses substituted");
  return n;
}

}  // namespace polaris
