#include "expt/sweep.hpp"

#include <stdexcept>

namespace tcgrid::expt {

int SweepResults::heuristic_index(const std::string& name) const {
  const int i = try_heuristic_index(name);
  if (i < 0) {
    throw std::invalid_argument("SweepResults: heuristic not in sweep: " + name);
  }
  return i;
}

int SweepResults::try_heuristic_index(const std::string& name) const noexcept {
  for (std::size_t i = 0; i < heuristics.size(); ++i) {
    if (heuristics[i] == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace tcgrid::expt
