// ProgramUnit and Program.
//
// A Program is a collection of ProgramUnits (paper, Section 2); a
// ProgramUnit holds a Fortran program unit's statements, symbol table,
// formal-parameter list and common-block membership.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ir/stmtlist.h"
#include "ir/symbol.h"

namespace polaris {

enum class UnitKind { Program, Subroutine, Function };

class ProgramUnit {
 public:
  ProgramUnit(UnitKind kind, std::string name);

  UnitKind kind() const { return kind_; }
  const std::string& name() const { return name_; }

  SymbolTable& symtab() { return symtab_; }
  const SymbolTable& symtab() const { return symtab_; }

  StmtList& stmts() { return stmts_; }
  const StmtList& stmts() const { return stmts_; }

  /// Formal parameters in declaration order (symbols live in symtab()).
  const std::vector<Symbol*>& formals() const { return formals_; }
  void add_formal(Symbol* s);

  /// For UnitKind::Function: the result variable (same name as the unit).
  Symbol* result() const { return result_; }
  void set_result(Symbol* s) { result_ = s; }

  /// Deep copy with a fresh symbol table; all statement/expression symbol
  /// references are remapped to the new table.  Used by the inliner to
  /// build its per-subprogram "template" objects and by the pass
  /// manager's fault-isolation checkpoints.
  std::unique_ptr<ProgramUnit> clone(const std::string& new_name) const;

  /// Highest numeric statement label used in the unit (0 when none).
  int max_label() const;

 private:
  UnitKind kind_;
  std::string name_;
  SymbolTable symtab_;
  StmtList stmts_;
  std::vector<Symbol*> formals_;
  Symbol* result_ = nullptr;
};

class Program {
 public:
  Program() = default;
  Program(const Program&) = delete;
  Program& operator=(const Program&) = delete;

  /// Adds a unit; asserts the name is unique.  Transfers ownership (pointer
  /// argument — the Polaris ownership convention).
  ProgramUnit* add_unit(std::unique_ptr<ProgramUnit> unit);

  /// Finds a unit by (case-insensitive) name, or null.
  ProgramUnit* find(const std::string& name) const;

  /// The main program unit; asserts exactly one exists.
  ProgramUnit* main() const;

  const std::vector<std::unique_ptr<ProgramUnit>>& units() const {
    return units_;
  }

  /// Merges all units of `other` into this program (paper: "member
  /// functions for ... merging Programs").
  void merge(Program&& other);

  /// Renumbers statement ids to 1..n and symbol ids to 1..m in (unit
  /// order, creation order).  Ids normally come from process-global
  /// counters, so they encode allocation history; renumbering makes every
  /// id-derived artifact (`do#<id>` loop names, SymbolIdLess orderings) a
  /// pure function of the program — independent of worker count, of prior
  /// compilations in the process, and of which thread built which unit.
  /// Runs after the parallel parse merge and again after whole-program
  /// statement-creating passes (inline expansion clones statements with
  /// fresh global ids).
  void renumber_ids();

  /// Swaps the unit at `index` for `replacement`, destroying the old unit,
  /// and returns the new raw pointer.  Used by the pass manager to restore
  /// a unit from its checkpoint after a pass fault.  Touches only that
  /// vector slot, so concurrent per-unit workers restoring *different*
  /// units never race on each other's entries.
  ProgramUnit* replace_unit_at(std::size_t index,
                               std::unique_ptr<ProgramUnit> replacement);

 private:
  std::vector<std::unique_ptr<ProgramUnit>> units_;
};

}  // namespace polaris
