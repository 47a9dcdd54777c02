// Structural IR verifier.
//
// The Polaris paper (Section 2) makes enforced IR consistency a design
// pillar: StmtList revalidate()s after every edit and aliased structures
// "cause a run-time error".  Those checks fire *during* mutation; the
// verifier is the complementary whole-IR audit that can run between passes
// (`-verify-each`) and after pipeline completion.  It re-derives every
// consistency invariant from scratch and *reports* violations instead of
// asserting, so the fault-isolation layer can roll the offending pass back
// and keep compiling.
//
// Invariants checked per unit:
//   - statement-list integrity: prev/next symmetry, owner pointers, size,
//     tail, no cycles in the chain;
//   - multi-block well-formedness: balanced DO/ENDDO and IF/ENDIF with the
//     derived cross links (DoStmt::follow, EndDoStmt::header, the if-arm
//     chain, `outer`) agreeing with a fresh re-derivation;
//   - label resolution: labels unique, the label map consistent with the
//     statements, every GOTO target resolvable;
//   - symbol-table membership: every Symbol referenced from expressions,
//     DO indices, ParallelInfo annotations, formals, the function result,
//     dimension bounds, PARAMETER and DATA values lives in the unit's own
//     symbol table;
//   - expression-tree discipline: trees are acyclic and no node is shared
//     between two slots (the paper's aliased-structure error).
#pragma once

#include <string>
#include <vector>

#include "ir/program.h"

namespace polaris {

class CompileContext;  // support/context.h

/// One invariant violation found by the verifier.
struct VerifierViolation {
  std::string unit;     ///< program unit name
  std::string rule;     ///< short rule id, e.g. "dangling-symbol"
  std::string where;    ///< offending statement/symbol, best effort
  std::string message;  ///< human-readable description
};

/// Audits one unit; returns every violation found (empty = consistent).
/// Never throws on corrupted IR — all walks are cycle- and bound-guarded.
/// The CompileContext overloads emit verify spans into the compile's
/// trace; the short forms run untraced (tests, standalone tools).
std::vector<VerifierViolation> verify_unit(const ProgramUnit& unit);
std::vector<VerifierViolation> verify_unit(const ProgramUnit& unit,
                                           CompileContext* cc);

/// Audits every unit plus program-level invariants (exactly one main unit,
/// unique unit names).
std::vector<VerifierViolation> verify_program(const Program& program);
std::vector<VerifierViolation> verify_program(const Program& program,
                                              CompileContext* cc);

/// "unit: [rule] where: message" lines joined with '\n' (diagnostics /
/// exception payloads).
std::string format_violations(const std::vector<VerifierViolation>& vs);

}  // namespace polaris
