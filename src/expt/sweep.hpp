// The aggregated outcomes of a factorial experiment sweep (§VII-A).
//
// The paper's full space: m in {5,10} x ncom in {5,10,20} x wmin in 1..10,
// 10 random scenarios per cell, 10 trials per scenario. Sweeps are described
// by api::ExperimentSpec and run by api::Session; api::AggregateSink folds
// the streamed rows into the SweepResults tensor below for the paper-style
// reports (expt/report.hpp).
#pragma once

#include <string>
#include <vector>

#include "expt/metrics.hpp"
#include "platform/scenario.hpp"

namespace tcgrid::expt {

/// All (heuristic x scenario x trial) outcomes of a sweep, with scenario
/// parameters aligned by scenario index.
struct SweepResults {
  std::vector<std::string> heuristics;
  std::vector<platform::ScenarioParams> scenarios;
  /// outcomes[h][scenario][trial]
  std::vector<std::vector<ScenarioOutcomes>> outcomes;

  /// Index of `name` in `heuristics`. Contract: throws std::invalid_argument
  /// (naming the heuristic) when `name` was not part of the sweep — callers
  /// use the index to address `outcomes`, so a silent sentinel would turn a
  /// typo into out-of-bounds access. Use try_heuristic_index to probe.
  [[nodiscard]] int heuristic_index(const std::string& name) const;

  /// Non-throwing lookup: the index of `name`, or -1 if not in the sweep.
  [[nodiscard]] int try_heuristic_index(const std::string& name) const noexcept;
};

}  // namespace tcgrid::expt
