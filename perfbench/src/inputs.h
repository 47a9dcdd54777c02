// Seeded input generation.  The seed lives only here: the program under
// test sees the generated sources, never the seed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: the same stream for a seed on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform-enough integer in [0, n).
  std::size_t below(std::size_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

/// compile-suite input: every suite mini demoted to a subroutine of one
/// driver program, in a seeded unit order, with the driver CALLing one
/// seeded pick from each of the four call groups.
struct SuiteProgram {
  std::string source;
  std::vector<std::string> calls;  ///< called minis, in call order
};
SuiteProgram make_suite_program(std::uint64_t seed);

/// The call groups: minis in one group have the same number of loops the
/// compiler proves parallel today, so the inlined program's
/// `parallel_loops` is the same for every seed.
const std::vector<std::vector<std::string>>& call_groups();

/// Figure 6's TRACK NLFILT kernel: 20 invocations, 18 strides coprime to
/// np (the subscripted stores form a permutation, the PD test passes) and
/// the 2 colliding strides 10 and 15, placed at seeded invocations.
std::string make_track_source(std::uint64_t seed);

/// Expected processors=1 output of each suite mini, keyed by code name
/// (the committed `expected/suite_p1.txt`; lines are `name<TAB>line`).
using ExpectedOutputs = std::map<std::string, std::vector<std::string>>;
bool load_expected(const std::string& path, ExpectedOutputs* out);
/// The same table computed by running every mini at processors=1, in the
/// committed file's format (regenerates the file).
std::string render_expected();

}  // namespace perfbench
