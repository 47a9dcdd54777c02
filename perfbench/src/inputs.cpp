#include "inputs.h"

#include <fstream>
#include <sstream>

#include "interp/interp.h"
#include "parser/parser.h"
#include "suite/suite.h"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

const std::vector<std::vector<std::string>>& call_groups() {
  // 9, 7, 6 and 4 parallel loops each.  Within a group, inlining any
  // member adds about the same compile time (within ~0.5 ms at jobs=1),
  // so the seed moves compile_j1_ms little.  The other minis are compiled
  // but never called: ocean, tfft2 and tomcatv have no partner with their
  // loop count, and mdg, su2cor and trfd cost 0.4-0.9 ms more or less to
  // inline than applu and wave5.
  static const std::vector<std::vector<std::string>> groups = {
      {"arc2d", "cmhog", "hydro2d"},
      {"bdna", "flo52"},
      {"appsp", "cloud3d", "swim"},
      {"applu", "wave5"},
  };
  return groups;
}

SuiteProgram make_suite_program(std::uint64_t seed) {
  Rng rng(seed);
  const auto& suite = polaris::benchmark_suite();
  std::vector<std::size_t> order(suite.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.shuffle(order);

  SuiteProgram out;
  for (const auto& group : call_groups())
    out.calls.push_back(group[rng.below(group.size())]);
  rng.shuffle(out.calls);

  out.source = "      program driver\n";
  for (const std::string& name : out.calls)
    out.source += "      call " + name + "\n";
  out.source += "      end\n";
  for (std::size_t i : order) {
    const polaris::BenchProgram& bp = suite[i];
    std::string body = bp.source;
    const std::string card = "program " + bp.name;
    std::size_t at = body.find(card);
    if (at != std::string::npos)
      body.replace(at, card.size(), "subroutine " + bp.name);
    out.source += body;
    if (!body.empty() && body.back() != '\n') out.source += '\n';
  }
  return out;
}

std::string make_track_source(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<int> strides = {7,  11, 13, 17, 19, 23, 29, 31, 37,
                              41, 43, 47, 49, 53, 59, 61, 67, 71};
  std::size_t first = rng.below(strides.size() + 1);
  strides.insert(strides.begin() + static_cast<std::ptrdiff_t>(first), 10);
  std::size_t second = rng.below(strides.size() + 1);
  strides.insert(strides.begin() + static_cast<std::ptrdiff_t>(second), 15);

  std::ostringstream data;
  data << "      data st /";
  for (std::size_t i = 0; i < strides.size(); ++i) {
    if (i == 12) data << "\n     &  ";
    data << strides[i] << (i + 1 < strides.size() ? ", " : "/\n");
  }
  return "      program track\n"
         "      parameter (np = 2000, ninv = 20)\n"
         "      real dat(np), nf(np)\n"
         "      integer key(np), st(ninv)\n" +
         data.str() +
         "      do i = 1, np\n"
         "        dat(i) = mod(i*3, 97)*0.01\n"
         "        nf(i) = 0.0\n"
         "      end do\n"
         "      do s = 1, ninv\n"
         "        do i = 1, np\n"
         "          key(i) = mod(i*st(s), np) + 1\n"
         "        end do\n"
         "        do i = 1, np\n"
         "          nf(key(i)) = nf(key(i))*0.25 + dat(i)*0.5\n"
         "     &      + dat(mod(i + s, np) + 1)*0.125\n"
         "     &      + dat(mod(i*3 + s, np) + 1)*0.0625\n"
         "     &      + (dat(i)*0.5 + 0.25)*(dat(i)*0.125 + 0.5)\n"
         "        end do\n"
         "      end do\n"
         "      cks = 0.0\n"
         "      do i = 1, np\n"
         "        cks = cks + nf(i)\n"
         "      end do\n"
         "      print *, 'track', cks\n"
         "      end\n";
}

bool load_expected(const std::string& path, ExpectedOutputs* out) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    std::size_t tab = line.find('\t');
    if (tab == std::string::npos) return false;
    (*out)[line.substr(0, tab)].push_back(line.substr(tab + 1));
  }
  return !out->empty();
}

std::string render_expected() {
  std::string text;
  polaris::MachineConfig one;
  one.processors = 1;
  for (const polaris::BenchProgram& bp : polaris::benchmark_suite()) {
    auto program = polaris::parse_program(bp.source);
    for (const std::string& line :
         polaris::run_program(*program, one).output)
      text += bp.name + "\t" + line + "\n";
  }
  return text;
}

}  // namespace perfbench
