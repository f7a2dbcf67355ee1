// Tour of all 17 heuristics on one scenario: runs every heuristic on the
// same availability realizations and prints per-heuristic makespans plus a
// short anatomy of the winner's execution (restarts, reconfigurations,
// comm/compute/suspended slots per iteration).
//
//   ./heuristic_tour [--m 5] [--ncom 5] [--wmin 3] [--seed 11] [--trials 3]
#include <algorithm>
#include <iostream>
#include <vector>

#include "api/api.hpp"
#include "sched/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace tcgrid;
  util::Cli cli(argc, argv, {"m", "ncom", "wmin", "seed", "trials", "cap"});

  platform::ScenarioParams params;
  params.m = static_cast<int>(cli.get_long("m", 5));
  params.ncom = static_cast<int>(cli.get_long("ncom", 5));
  params.wmin = cli.get_long("wmin", 3);
  params.seed = static_cast<std::uint64_t>(cli.get_long("seed", 11));
  const int trials = static_cast<int>(cli.get_long("trials", 3));

  api::Options options;
  options.slot_cap = cli.get_long("cap", 500'000);
  api::Session session(options);  // one estimator, reused across the tour

  std::cout << "Scenario: p=20, m=" << params.m << ", ncom=" << params.ncom
            << ", wmin=" << params.wmin << ", " << trials
            << " trial(s), 10 iterations per run\n\n";

  struct Row {
    std::string name;
    double mean = 0.0;
    int fails = 0;
    long restarts = 0, reconfigs = 0;
  };
  std::vector<Row> rows;
  std::string best_name;
  double best_mean = -1.0;

  for (const auto& name : sched::all_heuristic_names()) {
    Row row;
    row.name = name;
    int ok = 0;
    for (int t = 0; t < trials; ++t) {
      const auto r = session.run_trial(params, name, t);
      if (r.success) {
        row.mean += static_cast<double>(r.makespan);
        ++ok;
      } else {
        ++row.fails;
      }
      row.restarts += r.total_restarts;
      row.reconfigs += r.total_reconfigurations;
    }
    row.mean = ok > 0 ? row.mean / ok : 0.0;
    if (ok > 0 && (best_mean < 0 || row.mean < best_mean)) {
      best_mean = row.mean;
      best_name = name;
    }
    rows.push_back(row);
  }

  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    const double ka = a.mean > 0 ? a.mean : 1e18;
    const double kb = b.mean > 0 ? b.mean : 1e18;
    return ka < kb;
  });

  util::Table table({"Heuristic", "mean makespan", "fails", "restarts", "reconfigs"});
  for (const auto& r : rows) {
    table.add_row({r.name, util::Table::num(r.mean, 1), std::to_string(r.fails),
                   std::to_string(r.restarts), std::to_string(r.reconfigs)});
  }
  std::cout << table.str() << '\n';

  // Anatomy of the winner's first trial.
  const auto best = session.run_trial(params, best_name, 0);
  std::cout << "Anatomy of " << best_name << " (trial 0, makespan "
            << best.makespan << "):\n";
  util::Table anatomy({"iteration", "slots", "comm", "compute", "suspended",
                       "restarts", "reconfigs"});
  for (std::size_t i = 0; i < best.iterations.size(); ++i) {
    const auto& it = best.iterations[i];
    anatomy.add_row({std::to_string(i + 1),
                     std::to_string(it.end_slot - it.start_slot + 1),
                     std::to_string(it.comm_slots), std::to_string(it.compute_slots),
                     std::to_string(it.suspended_slots), std::to_string(it.restarts),
                     std::to_string(it.reconfigurations)});
  }
  std::cout << anatomy.str();
  return 0;
}
