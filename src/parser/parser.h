// Recursive-descent parser for the PF77 Fortran subset.
//
// Supported constructs (everything the paper's analyses exercise):
//   - PROGRAM / SUBROUTINE / FUNCTION units terminated by END
//   - type declarations: integer, real, real*8, double precision, logical
//   - DIMENSION, PARAMETER, COMMON, DATA (with n*value repeat counts),
//     IMPLICIT NONE, SAVE/EXTERNAL/INTRINSIC (accepted and ignored)
//   - DO / ENDDO loops, classic labeled "DO 100 I = ..." loops
//   - block IF / ELSE IF / ELSE / END IF, logical IF (desugared to a block)
//   - assignment, CALL, GOTO, CONTINUE, RETURN, STOP, PRINT *, WRITE(*,*)
//   - expressions with Fortran operators, intrinsic calls, user function
//     calls, and implicit i-n integer typing
//
// Unsupported Fortran 77 (EQUIVALENCE, arithmetic IF, computed GOTO,
// FORMAT/file I/O, ENTRY, statement functions, CHARACTER operations) raises
// UserError with a clear message.
#pragma once

#include <memory>
#include <string>

#include "ir/program.h"

namespace polaris {

class CompileContext;  // support/context.h

/// Parses Fortran source text into a Program.  If the source does not begin
/// with a unit header, the statements are wrapped in an implicit
/// "program main".  Throws UserError on malformed input — including input
/// degenerate enough to trip a parser invariant: InternalError never
/// escapes this boundary.
///
/// A non-null `cc` attributes the parse to a compilation: the "parse"
/// trace span (with a unit-count arg) goes into its collector, and with
/// `jobs > 1` program units parse in parallel on its worker pool.  The
/// source is split into per-unit slices (see parser/splitter.h), each
/// slice lexes and parses independently with per-slice error capture,
/// and the fragments merge in textual unit order.  Output is
/// byte-identical at any jobs count; a malformed unit poisons only itself
/// and the textually-first slice error is the one reported.  After the
/// merge, statement and symbol ids are renumbered 1..n in textual order,
/// so id-derived names ("do#<id>") never depend on scheduling or on
/// earlier compilations in the process.
std::unique_ptr<Program> parse_program(const std::string& source,
                                       CompileContext* cc = nullptr,
                                       int jobs = 1);

/// Parses a single expression (test and tooling helper).  Symbols are
/// resolved/created in `symtab` with implicit typing.
ExprPtr parse_expression(const std::string& text, SymbolTable& symtab);

/// True if `name` names a recognized Fortran intrinsic (after alias
/// canonicalization: dabs -> abs, amax1 -> max, ...).
bool is_intrinsic_name(const std::string& name);

/// Canonical generic name of an intrinsic ("dsqrt" -> "sqrt").
std::string canonical_intrinsic(const std::string& name);

}  // namespace polaris
