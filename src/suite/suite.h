// The evaluation suite: 16 miniature PF77 programs, one per benchmark code
// in the paper's Table 1 / Figure 7 (6 Perfect, 8 SPEC, 2 NCSA).
//
// Each mini is distilled to the dominant loop patterns the paper (and the
// companion Polaris studies) attribute to that code — TRFD's induction
// nest, OCEAN's nonlinear FTRVMT subscripts, BDNA's gather/compress,
// MDG's histogram reductions, ARC2D's privatizable sweep buffers, APPLU's
// wavefront recurrence, and so on — so the per-code Polaris-vs-baseline
// outcome is governed by the same analyses as in the paper.  Every program
// prints deterministic checksums, so transformed runs are checked against
// reference runs.
#pragma once

#include <string>
#include <vector>

namespace polaris {

struct BenchProgram {
  std::string name;         ///< lower-case code name ("trfd")
  std::string origin;       ///< "PERFECT", "SPEC", or "NCSA"
  int paper_lines;          ///< Table 1: lines of code of the real program
  double paper_serial_sec;  ///< Table 1: serial seconds on the SGI Challenge
  std::string technique;    ///< dominant technique the mini exercises
  std::string source;       ///< PF77 source of the mini
};

/// All 16 programs in the paper's Table 1 order.
const std::vector<BenchProgram>& benchmark_suite();

/// Look up one program by name; asserts it exists.
const BenchProgram& suite_program(const std::string& name);

/// All 16 programs as units of one program: each mini's `program <name>`
/// card demoted to `subroutine <name>` under a trivial driver (17 units),
/// so per-unit pass groups have units to fan out over worker threads and
/// to fault independently (the minis themselves are single-unit).
std::string combined_suite_source();

/// Figure 6's TRACK NLFILT/300-style kernel: 20 invocations of a loop that
/// scatters through a run-time subscript array.  Strides coprime to 2000
/// yield permutations (the loop is parallel); strides 10 and 15 collide
/// (the 10% of invocations the PD test sends back to serial execution).
extern const char* const kTrackSource;

}  // namespace polaris
