// Extension bench (paper §VII-B, future work made executable): how "wrong"
// do the Markov-based heuristics get when real availability is NOT Markovian?
//
// World A — model correct: availability follows each processor's Markov
//   chain, heuristics know the true chain (the paper's laboratory setting).
// World B — model wrong: availability is a semi-Markov process with
//   heavy-tailed Weibull sojourns (shape 0.7, mean sojourns matched to the
//   Markov chain's); heuristics are given a "flawed" Markov model fitted by
//   maximum likelihood from a recorded training trace.
//
// Reported: mean makespan per heuristic in each world and its %diff vs the
// reference IE, answering whether Y-IE/P-IE's advantage survives model
// misspecification.
#include <cmath>
#include <iostream>
#include <vector>

#include "api/api.hpp"
#include "expt/runner.hpp"
#include "platform/scenario.hpp"
#include "scen/scen.hpp"
#include "sched/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace tcgrid;

long run_with(const platform::Platform& real, const model::Application& app,
              platform::AvailabilitySource& avail, const sched::Estimator& est,
              const std::string& name, long cap) {
  auto sched = sched::make_scheduler(name, est, 7);
  api::Options options;
  options.slot_cap = cap;
  return api::Session::run_custom(options, real, app, avail, *sched).makespan;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"scenarios", "trials", "cap", "shape", "train"});
  const int scenarios = static_cast<int>(cli.get_long("scenarios", 4));
  const int trials = static_cast<int>(cli.get_long("trials", 3));
  const long cap = cli.get_long("cap", 300'000);
  const double shape = cli.get_double("shape", 0.7);
  const long train_slots = cli.get_long("train", 50'000);
  const std::vector<std::string> heuristics = {"IE", "Y-IE", "P-IE", "E-IAY",
                                               "IAY", "RANDOM"};

  std::cout << "== Model-mismatch study (paper SVII-B future work) ==\n"
            << scenarios << " scenario(s) x " << trials
            << " trial(s), Weibull shape " << shape << ", cap " << cap
            << " slots, " << train_slots << "-slot training trace\n\n";

  std::vector<double> sum_a(heuristics.size(), 0.0), sum_b(heuristics.size(), 0.0);
  std::vector<int> count_a(heuristics.size(), 0), count_b(heuristics.size(), 0);

  for (int sc = 0; sc < scenarios; ++sc) {
    platform::ScenarioParams params;
    params.m = 5;
    params.ncom = 5;
    params.wmin = 1 + 3 * sc;  // spread across difficulty
    params.seed = 100 + static_cast<std::uint64_t>(sc);
    const auto scenario = platform::make_scenario(params);

    // World A estimator: the true Markov model.
    sched::Estimator true_est(scenario.platform, scenario.app, 1e-6);

    // Semi-Markov truth for World B: the weibull family (Weibull sojourns
    // matched to the platform's chains) — shared with bench_scen.
    const auto truth_family =
        scen::make_weibull_family("weibull", scen::WeibullFamilyParams{shape});

    // Fit a "flawed" Markov model from a recorded training trace.
    const auto believed_platform = scen::fit_markov_platform(
        scenario.platform, *truth_family, train_slots, params.seed ^ 0xbeef);
    sched::Estimator fitted_est(believed_platform, scenario.app, 1e-6);

    for (int trial = 0; trial < trials; ++trial) {
      for (std::size_t h = 0; h < heuristics.size(); ++h) {
        // World A: Markov availability, true model.
        platform::MarkovAvailability avail_a(
            scenario.platform, expt::trial_seed(scenario, trial));
        const long ma = run_with(scenario.platform, scenario.app, avail_a,
                                 true_est, heuristics[h], cap);
        if (ma < cap) {
          sum_a[h] += static_cast<double>(ma);
          ++count_a[h];
        }
        // World B: semi-Markov availability, fitted (wrong) model.
        auto avail_b = truth_family->make_source(scenario.platform,
                                                 expt::trial_seed(scenario, trial),
                                                 platform::InitialStates::Stationary);
        const long mb = run_with(scenario.platform, scenario.app, *avail_b,
                                 fitted_est, heuristics[h], cap);
        if (mb < cap) {
          sum_b[h] += static_cast<double>(mb);
          ++count_b[h];
        }
      }
    }
  }

  auto mean = [](double sum, int n) { return n > 0 ? sum / n : 0.0; };
  const double ie_a = mean(sum_a[0], count_a[0]);
  const double ie_b = mean(sum_b[0], count_b[0]);

  util::Table table({"Heuristic", "makespan (Markov)", "%diff", "makespan (semi-Markov)",
                     "%diff", "fails A", "fails B"});
  const int total = scenarios * trials;
  for (std::size_t h = 0; h < heuristics.size(); ++h) {
    const double a = mean(sum_a[h], count_a[h]);
    const double b = mean(sum_b[h], count_b[h]);
    auto diff = [](double x, double ref) {
      return ref > 0.0 && x > 0.0 ? 100.0 * (x - ref) / std::min(x, ref) : 0.0;
    };
    table.add_row({heuristics[h], util::Table::num(a, 0),
                   util::Table::num(diff(a, ie_a)), util::Table::num(b, 0),
                   util::Table::num(diff(b, ie_b)),
                   std::to_string(total - count_a[h]),
                   std::to_string(total - count_b[h])});
  }
  std::cout << table.str()
            << "\nReading: if the probabilistic heuristics (Y-IE, P-IE, E-IAY)"
               "\nstill show negative %diff in the semi-Markov world, their"
               "\nadvantage is robust to the Markov assumption being wrong.\n";
  return 0;
}
