// Extension bench: the paper's probabilistic heuristics against the
// knowledge-light baselines of its related-work section (§II), and against
// model-free adaptive variants that learn the Markov chain on line.
//
// Questions answered:
//   * how much of Y-IE's advantage comes from knowing the availability
//     *model*, vs just knowing speeds (FASTEST) or availability ranks
//     (MOSTAVAIL / UPTIME)?
//   * does ADAPT-Y-IE (same heuristic, model fitted from observations)
//     recover the advantage without oracle knowledge?
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tcgrid;
  util::Cli cli(argc, argv, bench::sweep_flags());
  auto spec = bench::spec_from_cli(cli, /*m=*/5, /*default_cap=*/200'000);
  // A lighter grid than Table I: the comparison, not the factorial, is the
  // point here.
  spec.grid.wmins = {1, 3, 5, 7, 9};
  spec.grid.ncoms = {5, 10};
  spec.heuristics = {"RANDOM", "FASTEST",  "MOSTAVAIL", "UPTIME",
                     "IE",     "IAY",      "Y-IE",      "P-IE",
                     "ADAPT-IE", "ADAPT-Y-IE"};
  std::cout << "== Baselines & adaptive variants vs the paper's heuristics ==\n"
            << "sweep: m=5 ncom={5,10} wmin={1,3,5,7,9}, "
            << spec.grid.scenarios_per_cell << " scenario(s)/cell x " << spec.trials
            << " trial(s), cap=" << spec.options.slot_cap << "\n\n";

  const auto results = bench::run_and_aggregate(spec, cli);
  const auto summaries = expt::summarize_all(results, "IE");
  std::cout << expt::paper_table(summaries).str()
            << "\nReading guide: FASTEST/MOSTAVAIL/UPTIME are the §II-style"
               "\nbaselines (static ranks, no probabilistic model); ADAPT-*"
               "\nrun the same estimator mathematics on a model fitted from"
               "\nobserved states only. If ADAPT-Y-IE lands near Y-IE, the"
               "\noracle model is not load-bearing — observation suffices.\n";
  return 0;
}
