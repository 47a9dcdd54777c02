// Cheap top-level unit splitter — the front half of parallel parsing.
//
// Program units (PROGRAM / SUBROUTINE / FUNCTION ... END) are textually
// independent: nothing in one unit changes how another one lexes or
// parses.  split_units runs the lexer's stage 1 (assemble_lines) once over
// the whole file and cuts the assembled lines after every line that is
// exactly the unit terminator END.  Each unit's lines then go through
// stage 2 (lex_lines) and the parse on a worker, independently, and keep
// their whole-file line numbers.
//
// The splitter never diagnoses anything: a malformed line simply stays
// inside whatever unit it falls in, and that unit's lex or parse reports
// the identical UserError a whole-file parse would have.  A directive
// between units attaches to the *following* unit, so a stray directive
// before a unit header misparses the same way in both modes.
#pragma once

#include <string>
#include <vector>

#include "parser/lexer.h"

namespace polaris {

/// Splits source text into per-unit line vectors: each holds (at most) one
/// program unit's assembled lines, terminator included, after any
/// directives that precede its header.  Concatenated, they are exactly
/// assemble_lines(source).  Never throws.
std::vector<std::vector<RawLine>> split_units(const std::string& source);

}  // namespace polaris
