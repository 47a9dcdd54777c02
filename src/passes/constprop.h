// Constant propagation and expression cleanup.
//
// Folds PARAMETER constants and simplifies every expression in the unit
// (the paper's loop-normalization companion: several analyses assume
// folded bounds, e.g. Banerjee's constant-bounds requirement).  Scalar
// constants assigned once before their only uses are propagated through
// the GSA query engine during analysis instead, so this pass stays purely
// local and always safe.
#pragma once

#include "ir/program.h"

namespace polaris {

/// Simplifies all expressions; returns the number of slots whose
/// simplified tree is not equals() to the one it replaced.
int propagate_constants(ProgramUnit& unit);

}  // namespace polaris
