// Running one heuristic on one trial of one scenario.
//
// A trial is identified by (scenario seed, trial index); its availability
// realization is a pure function of that pair, so all heuristics evaluated
// on the trial face the exact same processor availability — the paper's
// paired-comparison methodology.
#pragma once

#include <string_view>

#include "platform/availability.hpp"
#include "platform/scenario.hpp"
#include "sched/estimator.hpp"
#include "sim/stats.hpp"

namespace tcgrid::expt {

struct RunOptions {
  long slot_cap = 1'000'000;  ///< paper's failure threshold
  platform::InitialStates init = platform::InitialStates::Stationary;
};

/// Availability seed for (scenario, trial): shared by every heuristic.
[[nodiscard]] std::uint64_t trial_seed(const platform::Scenario& scenario, int trial);

/// Simulate `heuristic` on the given trial. The estimator must have been
/// built for this scenario's platform/application (it is reused across
/// heuristics and trials of the same scenario for cache warmth; it is not
/// thread-safe, so share it only within one thread).
[[nodiscard]] sim::SimulationResult run_trial(const platform::Scenario& scenario,
                                              const sched::Estimator& estimator,
                                              std::string_view heuristic, int trial,
                                              const RunOptions& options);

}  // namespace tcgrid::expt
