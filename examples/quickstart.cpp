// Quickstart: build one of the paper's random scenarios, run a handful of
// heuristics on the same availability realization, and compare makespans.
//
// All wiring (scenario instantiation, estimator construction/reuse,
// scheduler creation, engine setup) lives behind api::Session.
//
//   ./quickstart [--m 5] [--ncom 5] [--wmin 2] [--seed 7] [--cap 200000]
#include <iostream>

#include "api/api.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace tcgrid;
  util::Cli cli(argc, argv, {"m", "ncom", "wmin", "seed", "cap"});

  platform::ScenarioParams params;
  params.m = static_cast<int>(cli.get_long("m", 5));
  params.ncom = static_cast<int>(cli.get_long("ncom", 5));
  params.wmin = cli.get_long("wmin", 2);
  params.seed = static_cast<std::uint64_t>(cli.get_long("seed", 7));

  api::Options options;
  options.slot_cap = cli.get_long("cap", 200'000);
  api::Session session(options);

  const platform::Scenario& scenario = session.scenario_for(params);
  std::cout << "Scenario: p=" << params.p << " m=" << params.m
            << " ncom=" << params.ncom << " wmin=" << params.wmin
            << " Tprog=" << scenario.app.t_prog << " Tdata=" << scenario.app.t_data
            << " (10 iterations to complete)\n\n";

  util::Table table({"Heuristic", "makespan", "restarts", "reconfigs", "status"});
  for (const char* name : {"RANDOM", "IE", "IAY", "Y-IE", "P-IE", "E-IAY"}) {
    const sim::SimulationResult r = session.run_trial(params, name, /*trial=*/0);
    table.add_row({name, std::to_string(r.makespan), std::to_string(r.total_restarts),
                   std::to_string(r.total_reconfigurations),
                   r.success ? "ok" : "CAP HIT"});
  }
  std::cout << table.str()
            << "\nAll heuristics faced the identical availability realization.\n";
  return 0;
}
