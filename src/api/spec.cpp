#include "api/spec.hpp"

#include <stdexcept>

#include "sched/registry.hpp"
#include "util/rng.hpp"

namespace tcgrid::api {

std::vector<platform::ScenarioParams> ExperimentSpec::scenarios() const {
  if (!explicit_scenarios.empty()) return explicit_scenarios;
  // Cell-major enumeration. Seeds mix (cell, s) through two chained
  // SplitMix64 derivations (util::derive_seed2): distinct cells own disjoint
  // scenario-seed streams by construction. The historical additive scheme
  // (derive_seed(seed, cell * 1000 + s)) collided across cells whenever
  // scenarios_per_cell exceeded 1000 — cell c's scenario 1000 WAS cell
  // (c+1)'s scenario 0, silently duplicating platforms across cells.
  std::vector<platform::ScenarioParams> out;
  out.reserve(grid.ms.size() * grid.ncoms.size() * grid.wmins.size() *
              static_cast<std::size_t>(grid.scenarios_per_cell));
  std::uint64_t cell = 0;
  for (int m : grid.ms) {
    for (int ncom : grid.ncoms) {
      for (long wmin : grid.wmins) {
        for (int s = 0; s < grid.scenarios_per_cell; ++s) {
          platform::ScenarioParams params;
          params.m = m;
          params.ncom = ncom;
          params.wmin = wmin;
          params.p = grid.p;
          params.iterations = grid.iterations;
          params.seed =
              util::derive_seed2(options.seed, cell, static_cast<std::uint64_t>(s));
          out.push_back(params);
        }
        ++cell;
      }
    }
  }
  return out;
}

const std::vector<std::string>& ExperimentSpec::resolved_heuristics() const {
  return heuristics.empty() ? sched::all_heuristic_names() : heuristics;
}

void ExperimentSpec::validate() const {
  for (const auto& name : resolved_heuristics()) {
    if (!sched::is_heuristic_name(name)) {
      throw std::invalid_argument("ExperimentSpec: unknown heuristic '" + name +
                                  "' (see sched::all_heuristic_names / "
                                  "extension_heuristic_names)");
    }
  }
  scenario_space.validate();
  if (trials <= 0) throw std::invalid_argument("ExperimentSpec: trials must be >= 1");
  if (explicit_scenarios.empty()) {
    if (grid.ms.empty() || grid.ncoms.empty() || grid.wmins.empty() ||
        grid.scenarios_per_cell <= 0) {
      throw std::invalid_argument("ExperimentSpec: empty scenario grid");
    }
  }
  if (options.slot_cap <= 0) {
    throw std::invalid_argument("ExperimentSpec: slot_cap must be >= 1");
  }
  if (options.avail_block <= 0) {
    // Catch it here: the engine's own check would throw inside a worker
    // task, which terminates the process (see util/parallel.hpp).
    throw std::invalid_argument("ExperimentSpec: avail_block must be >= 1");
  }
  if (options.eps <= 0.0) {
    throw std::invalid_argument("ExperimentSpec: eps must be > 0");
  }
}

ExperimentSpec ExperimentSpec::paper(int m) {
  ExperimentSpec spec;
  spec.grid.ms = {m};
  spec.grid.scenarios_per_cell = 10;
  spec.trials = 10;
  spec.options.slot_cap = 1'000'000;
  return spec;
}

ExperimentSpec ExperimentSpec::reduced(int m, long slot_cap) {
  ExperimentSpec spec;
  spec.grid.ms = {m};
  spec.grid.scenarios_per_cell = 2;
  spec.trials = 2;
  spec.options.slot_cap = slot_cap;
  return spec;
}

}  // namespace tcgrid::api
