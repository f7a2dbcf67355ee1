// Reproduces the paper's Figure 2: relative distance (%diff as a ratio) to
// the reference IE versus wmin, for m = 10 tasks and the best 8 heuristics.
//
// The published crossover: Y-IE is best (most negative) up to wmin ~ 8, then
// plain IE wins for the hardest instances; P-IE tracks Y-IE but degrades
// more gracefully. Optionally writes the series to CSV (--csv PATH).
#include <iostream>

#include "bench_common.hpp"
#include "sched/registry.hpp"
#include "util/csv.hpp"

int main(int argc, char** argv) {
  using namespace tcgrid;
  util::Cli cli(argc, argv, bench::sweep_flags({"csv"}));
  auto spec = bench::spec_from_cli(cli, /*m=*/10, /*default_cap=*/150'000);
  spec.heuristics = sched::tableii_heuristic_names();
  bench::print_header("Figure 2: relative distance vs wmin (m = 10)", spec);

  const auto results = bench::run_and_aggregate(spec, cli);
  const auto series = expt::figure2_series(results, "IE");
  std::cout << expt::figure2_table(series).str()
            << "\n(values are mean relative distance to IE; negative = better"
               " than IE,\n matching Figure 2's y-axis)\n";

  if (cli.has("csv")) {
    const std::string path = cli.get("csv", "figure2.csv");
    util::CsvWriter csv({"heuristic", "wmin", "relative_distance"});
    for (const auto& [name, points] : series) {
      for (const auto& [wmin, v] : points) {
        csv.add_row({name, std::to_string(wmin), std::to_string(v)});
      }
    }
    std::cout << (csv.save(path) ? "wrote " : "FAILED to write ") << path << "\n";
  }
  return 0;
}
