// Trace-driven scheduling: instead of sampling availability on the fly,
// record a (possibly non-Markovian) trace to a file, fit a Markov model
// from it, and drive the scheduler against the replayed trace — the
// workflow a practitioner would use with real desktop-grid logs.
//
//   ./trace_driven [--trace path] [--slots 20000] [--wmin 2] [--seed 9]
//
// Without --trace, a heavy-tailed semi-Markov trace is synthesized first
// (Weibull sojourns, shape 0.7), standing in for a production log.
#include <fstream>
#include <iostream>
#include <sstream>

#include "api/api.hpp"
#include "offline/clairvoyant.hpp"
#include "platform/availability.hpp"
#include "platform/semi_markov.hpp"
#include "platform/trace_io.hpp"
#include "sched/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace tcgrid;
  util::Cli cli(argc, argv, {"trace", "slots", "wmin", "seed"});
  const long slots = cli.get_long("slots", 20'000);
  const auto seed = static_cast<std::uint64_t>(cli.get_long("seed", 9));

  platform::ScenarioParams params;
  params.wmin = cli.get_long("wmin", 2);
  params.seed = seed;
  auto scenario = platform::make_scenario(params);

  // --- obtain a trace ------------------------------------------------------
  platform::StateTimeline timeline;
  if (cli.has("trace")) {
    const std::string path = cli.get("trace", "");
    timeline = platform::load_trace(path);
    std::cout << "loaded trace " << path << ": " << timeline.size() << " slots x "
              << timeline.front().size() << " processors\n";
  } else {
    std::vector<platform::SemiMarkovParams> sm(
        static_cast<std::size_t>(scenario.platform.size()));
    for (auto& s : sm) {
      s.shape = {0.7, 0.7, 0.7};
      s.scale = {40.0, 12.0, 12.0};  // mostly-up processors, heavy tails
    }
    platform::SemiMarkovAvailability source(sm, seed);
    timeline = platform::record(source, slots);
    std::ostringstream buf;
    platform::write_trace(buf, timeline);
    std::ofstream out("synthetic_trace.txt");
    out << "# synthetic semi-Markov desktop-grid trace (u/r/d per processor)\n"
        << buf.str();
    std::cout << "synthesized " << slots << "-slot semi-Markov trace "
              << "(saved to synthetic_trace.txt)\n";
  }

  // --- fit a Markov model from the trace (the §VII-B workflow) -------------
  std::vector<platform::Processor> believed = {scenario.platform.procs().begin(),
                                               scenario.platform.procs().end()};
  for (int q = 0; q < scenario.platform.size(); ++q) {
    believed[static_cast<std::size_t>(q)].availability =
        platform::fit_transition_matrix(timeline, q);
  }
  platform::Platform believed_platform(std::move(believed), scenario.platform.ncom());
  sched::Estimator estimator(believed_platform, scenario.app, 1e-6);

  const auto pi0 = believed_platform.proc(0).availability.stationary();
  std::cout << "fitted model, e.g. P1: stationary (UP,RECLAIMED,DOWN) = ("
            << util::Table::num(pi0[0]) << ", " << util::Table::num(pi0[1]) << ", "
            << util::Table::num(pi0[2]) << ")\n\n";

  // --- replay the trace under several heuristics ---------------------------
  api::Options options;
  options.slot_cap = static_cast<long>(timeline.size());
  api::Session session(options);

  util::Table table({"Heuristic", "makespan", "iterations", "restarts", "status"});
  for (const char* name : {"RANDOM", "IE", "IAY", "Y-IE", "P-IE"}) {
    platform::FixedAvailability avail(timeline);
    auto scheduler = sched::make_scheduler(name, estimator, seed);
    const auto r =
        session.run_custom(scenario.platform, scenario.app, avail, *scheduler);
    table.add_row({name, std::to_string(r.makespan),
                   std::to_string(r.iterations_completed),
                   std::to_string(r.total_restarts),
                   r.success ? "ok" : "trace exhausted"});
  }
  // Clairvoyant reference: same trace, but with full future knowledge.
  {
    offline::ClairvoyantScheduler clair(scenario.platform, scenario.app, timeline);
    platform::FixedAvailability avail(timeline);
    const auto r = session.run_custom(scenario.platform, scenario.app, avail, clair);
    table.add_row({"CLAIRVOYANT", std::to_string(r.makespan),
                   std::to_string(r.iterations_completed),
                   std::to_string(r.total_restarts),
                   r.success ? "ok" : "trace exhausted"});
  }

  std::cout << table.str()
            << "\nSchedulers used a Markov model *fitted from the trace* while"
               "\nthe replayed availability is heavy-tailed — the model-mismatch"
               "\nsetting the paper proposes as future work (see bench_mismatch)."
               "\nCLAIRVOYANT sees the whole trace in advance (SIV's off-line"
               "\nsetting): the gap to it prices the lack of future knowledge.\n";
  return 0;
}
