// Reproduces the paper's Table I: all 17 heuristics at m = 5 tasks, compared
// to the reference heuristic IE by #fails / %diff / %wins / %wins30 / stdv.
//
// Default: reduced sweep (minutes on one core). `--full` runs the paper's
// exact scale: 3 ncom x 10 wmin x 10 scenarios x 10 trials = 3,000 instances
// per heuristic, 10^6-slot failure cap.
#include <iostream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace tcgrid;
  util::Cli cli(argc, argv, bench::sweep_flags());
  const auto spec = bench::spec_from_cli(cli, /*m=*/5, /*default_cap=*/1'000'000);
  bench::print_header("Table I: results with m = 5 tasks", spec);

  const auto results = bench::run_and_aggregate(spec, cli);
  const auto summaries = expt::summarize_all(results, "IE");
  std::cout << bench::table_with_paper_column(summaries, bench::paper_table1_diff())
                   .str()
            << "\nExpected shape (paper): Y-IE and P-IE best (negative %diff);"
               "\nE-IAY/E-IY next; IE the most robust reference; E-IE poor"
               "\ndespite combining two good ideas; RANDOM worse by >10x.\n";
  return 0;
}
