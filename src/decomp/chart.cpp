#include "decomp/chart.hpp"

#include <sstream>

namespace imodec {

namespace {
std::string vertex_bits(std::uint64_t v, unsigned width) {
  std::string s(width, '0');
  for (unsigned i = 0; i < width; ++i)
    if ((v >> i) & 1) s[i] = '1';
  return s;
}
}  // namespace

std::string render_chart(const TruthTable& f, const VarPartition& vp) {
  const unsigned b = vp.b();
  const unsigned nf = static_cast<unsigned>(vp.free_set.size());
  std::ostringstream os;

  os << std::string(nf + 2, ' ');
  for (std::uint64_t x = 0; x < (std::uint64_t{1} << b); ++x)
    os << vertex_bits(x, b) << ' ';
  os << '\n';

  const TruthTable chart = vp.chart(f);
  for (std::uint64_t y = 0; y < (std::uint64_t{1} << nf); ++y) {
    os << vertex_bits(y, nf) << "  ";
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << b); ++x) {
      os << std::string(b / 2, ' ') << (chart.get((x << nf) | y) ? '1' : '0')
         << std::string(b - b / 2, ' ');
    }
    os << '\n';
  }
  return os.str();
}

std::string render_partition(const VertexPartition& part) {
  std::ostringstream os;
  const auto members = part.members();
  for (std::uint32_t c = 0; c < part.num_classes; ++c) {
    os << "Class " << (c + 1) << ": {";
    for (std::size_t i = 0; i < members[c].size(); ++i) {
      if (i) os << ", ";
      os << vertex_bits(members[c][i], part.b);
    }
    os << "}\n";
  }
  return os.str();
}

}  // namespace imodec
