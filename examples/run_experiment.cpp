// Full-featured single-run driver: every model knob on the command line,
// any registered heuristic (paper or extension), optional ASCII Gantt of a
// chosen window, per-iteration anatomy, and CSV export of repeated trials.
//
//   ./run_experiment --heuristic Y-IE --m 5 --ncom 5 --wmin 3 --seed 7
//                    [--p 20] [--iterations 10] [--trials 1] [--cap 1000000]
//                    [--eps 1e-6] [--gantt-from 0 --gantt-to 120]
//                    [--csv out.csv] [--list]
#include <iostream>

#include "api/api.hpp"
#include "sched/registry.hpp"
#include "sim/gantt.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace tcgrid;
  util::Cli cli(argc, argv,
                {"list", "heuristic", "m", "ncom", "wmin", "p", "iterations", "seed", "trials",
                 "cap", "eps", "csv", "gantt-from", "gantt-to"});

  if (cli.has("list")) {
    std::cout << "paper heuristics:";
    for (const auto& n : sched::all_heuristic_names()) std::cout << ' ' << n;
    std::cout << "\nextensions:";
    for (const auto& n : sched::extension_heuristic_names()) std::cout << ' ' << n;
    std::cout << '\n';
    return 0;
  }

  const std::string heuristic = cli.get("heuristic", "Y-IE");
  if (!sched::is_heuristic_name(heuristic)) {
    std::cerr << "unknown heuristic '" << heuristic << "' (try --list)\n";
    return 1;
  }

  platform::ScenarioParams params;
  params.m = static_cast<int>(cli.get_long("m", 5));
  params.ncom = static_cast<int>(cli.get_long("ncom", 5));
  params.wmin = cli.get_long("wmin", 3);
  params.p = static_cast<int>(cli.get_long("p", 20));
  params.iterations = static_cast<int>(cli.get_long("iterations", 10));
  params.seed = static_cast<std::uint64_t>(cli.get_long("seed", 7));

  api::Options options;
  options.slot_cap = cli.get_long("cap", 1'000'000);
  options.eps = cli.get_double("eps", 1e-6);
  api::Session session(options);

  const int trials = static_cast<int>(cli.get_long("trials", 1));
  const long gantt_from = cli.get_long("gantt-from", -1);
  const long gantt_to = cli.get_long("gantt-to", gantt_from >= 0 ? gantt_from + 120 : -1);

  util::CsvWriter csv({"trial", "success", "makespan", "restarts", "reconfigs",
                       "idle_slots"});
  util::Table summary({"trial", "makespan", "restarts", "reconfigs", "status"});

  for (int trial = 0; trial < trials; ++trial) {
    const bool want_trace = gantt_from >= 0 && trial == 0;
    sim::ActivityTrace trace;
    const auto r = session.run_trial(params, heuristic, trial,
                                     want_trace ? &trace : nullptr);

    summary.add_row({std::to_string(trial), std::to_string(r.makespan),
                     std::to_string(r.total_restarts),
                     std::to_string(r.total_reconfigurations),
                     r.success ? "ok" : "CAP HIT"});
    csv.add_row({std::to_string(trial), r.success ? "1" : "0",
                 std::to_string(r.makespan), std::to_string(r.total_restarts),
                 std::to_string(r.total_reconfigurations),
                 std::to_string(r.idle_slots)});

    if (trial == 0) {
      std::cout << heuristic << " on p=" << params.p << " m=" << params.m
                << " ncom=" << params.ncom << " wmin=" << params.wmin
                << " (seed " << params.seed << ")\n\n";
      util::Table anatomy({"iteration", "slots", "comm", "compute", "suspended",
                           "restarts", "reconfigs"});
      for (std::size_t i = 0; i < r.iterations.size(); ++i) {
        const auto& it = r.iterations[i];
        anatomy.add_row(
            {std::to_string(i + 1), std::to_string(it.end_slot - it.start_slot + 1),
             std::to_string(it.comm_slots), std::to_string(it.compute_slots),
             std::to_string(it.suspended_slots), std::to_string(it.restarts),
             std::to_string(it.reconfigurations)});
      }
      std::cout << anatomy.str() << '\n';
      if (want_trace) {
        std::cout << "Gantt, slots [" << gantt_from << ", " << gantt_to << "):\n"
                  << sim::render_gantt(trace, gantt_from, gantt_to)
                  << sim::gantt_legend() << '\n';
      }
    }
  }

  std::cout << summary.str();
  if (cli.has("csv")) {
    const std::string path = cli.get("csv", "run.csv");
    std::cout << (csv.save(path) ? "wrote " : "FAILED to write ") << path << '\n';
  }
  return 0;
}
