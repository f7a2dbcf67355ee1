// Cross-family sweep: the same factorial experiment run in several worlds.
//
// Demonstrates the scen subsystem end to end: one ExperimentSpec, one
// Session, and a loop over availability-family names. Scenario seeds are
// space-independent, so every family sees the SAME platforms — differences
// in the table below are purely the availability law. A custom trace-replay
// family is registered on the fly from a recorded daynight trace to show
// the registration path.
//
//   ./family_sweep [--families markov,weibull,daynight] [--cap N]
//                  [--scenarios N] [--trials N] [--csv PATH]
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "expt/metrics.hpp"
#include "platform/scenario.hpp"
#include "platform/semi_markov.hpp"
#include "scen/scen.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace tcgrid;

namespace {

std::vector<std::string> split_names(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in(csv);
  std::string name;
  while (std::getline(in, name, ',')) {
    if (!name.empty()) out.push_back(name);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"families", "scenarios", "trials", "cap", "csv"});
  const long cap = cli.get_long("cap", 150'000);
  const int scenarios = static_cast<int>(cli.get_long("scenarios", 2));
  const int trials = static_cast<int>(cli.get_long("trials", 2));
  const std::string csv_path = cli.get("csv", "");

  // Register a trace-replay family: record 20k slots of the daynight world
  // on a representative platform and replay windows of it per trial.
  {
    platform::ScenarioParams rec_params;
    rec_params.seed = 7;
    const auto rec_scenario = platform::make_scenario(rec_params);
    auto src = scen::availability_family("daynight")
                   ->make_source(rec_scenario.platform, 99,
                                 platform::InitialStates::Stationary);
    auto timeline = std::make_shared<platform::StateTimeline>(
        platform::record(*src, 20'000));
    scen::register_availability_family(
        scen::make_trace_family("recorded", {std::move(timeline)}));
  }

  const std::vector<std::string> families =
      split_names(cli.get("families", "markov,weibull,daynight,recorded"));
  const std::vector<std::string> heuristics = {"IE", "Y-IE", "P-IE", "E-IAY"};

  std::cout << "== Cross-family sweep ==\nfamilies:";
  for (const auto& f : families) std::cout << ' ' << f;
  std::cout << "\nheuristics: IE Y-IE P-IE E-IAY, " << scenarios
            << " scenario(s)/cell x " << trials << " trial(s), cap " << cap << "\n\n";

  std::unique_ptr<api::CsvSink> csv;
  if (!csv_path.empty()) csv = std::make_unique<api::CsvSink>(csv_path);

  util::Table table({"family", "IE", "Y-IE", "P-IE", "E-IAY", "unfinished"});
  for (const auto& family : families) {
    api::ExperimentSpec spec = api::ExperimentSpec::reduced(5, cap);
    spec.grid.ncoms = {5, 20};
    spec.grid.wmins = {1, 4, 8};
    spec.grid.scenarios_per_cell = scenarios;
    spec.trials = trials;
    spec.heuristics = heuristics;
    spec.scenario_space.availability = family;

    api::AggregateSink aggregate;
    std::vector<api::ResultSink*> sinks{&aggregate};
    if (csv != nullptr) sinks.push_back(csv.get());
    api::Session().run(spec, sinks);

    const auto& results = aggregate.results();
    std::vector<std::string> row{family};
    long unfinished = 0;
    for (const auto& h : heuristics) {
      const auto idx = static_cast<std::size_t>(results.heuristic_index(h));
      double sum = 0;
      long n = 0;
      for (const auto& per_scenario : results.outcomes[idx]) {
        for (const auto& outcome : per_scenario) {
          if (outcome.success) {
            sum += static_cast<double>(outcome.makespan);
            ++n;
          } else {
            ++unfinished;
          }
        }
      }
      row.push_back(n > 0 ? util::Table::num(sum / static_cast<double>(n), 0) : "-");
    }
    row.push_back(std::to_string(unfinished));
    table.add_row(row);
  }
  std::cout << table.str()
            << "\nmean makespan over completed (scenario, trial) pairs; identical"
               "\nplatforms per row — only the availability law differs.\n";
  if (csv != nullptr) std::cout << "raw outcomes -> " << csv_path << "\n";
  return 0;
}
