// Engine benchmarks, in two modes:
//
//  * default: google-benchmark microbenchmarks of end-to-end runs per
//    heuristic class (slots/sec, fast-forward on and off), incremental
//    configuration builds (cold, and a delta rebuild after one worker's
//    change), and raw availability stepping;
//  * --emit_json[=PATH]: the CI perf smoke — run the reduced sweep per
//    heuristic with the event-horizon fast path ON and OFF (same binary,
//    same seeds), verify the outcomes are identical, and write
//    machine-readable slots/sec + speedups to BENCH_engine.json. This seeds
//    the perf trajectory: each CI run leaves a comparable artifact.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "bench_common.hpp"
#include "platform/scenario.hpp"
#include "sched/incremental.hpp"
#include "sched/registry.hpp"
#include "util/cli.hpp"

namespace {

using namespace tcgrid;

platform::ScenarioParams bench_params(int m, long wmin) {
  platform::ScenarioParams params;
  params.m = m;
  params.ncom = 5;
  params.wmin = wmin;
  params.seed = 11;
  return params;
}

platform::Scenario bench_scenario(int m, long wmin) {
  return platform::make_scenario(bench_params(m, wmin));
}

void run_heuristic_benchmark(benchmark::State& state, const char* name,
                             bool fast_forward) {
  const auto params = bench_params(static_cast<int>(state.range(0)), state.range(1));
  api::Options options;
  options.fast_forward = fast_forward;
  api::Session session(options);
  // Warm the session's scenario+estimator cache outside the timed region so
  // iterations measure the engine, not one-time construction (matching the
  // pre-facade benchmark semantics).
  (void)session.run_trial(params, name, 0);
  long slots = 0;
  for (auto _ : state) {
    const auto r = session.run_trial(params, name, 0);
    slots += r.makespan;
    benchmark::DoNotOptimize(r.makespan);
  }
  state.counters["slots/s"] =
      benchmark::Counter(static_cast<double>(slots), benchmark::Counter::kIsRate);
}

void BM_Run_RANDOM(benchmark::State& state) {
  run_heuristic_benchmark(state, "RANDOM", true);
}
void BM_Run_IE(benchmark::State& state) { run_heuristic_benchmark(state, "IE", true); }
void BM_Run_YIE(benchmark::State& state) { run_heuristic_benchmark(state, "Y-IE", true); }
void BM_Run_EIAY(benchmark::State& state) { run_heuristic_benchmark(state, "E-IAY", true); }
// The per-slot ablation baselines (EngineOptions::fast_forward = false).
void BM_Run_RANDOM_PerSlot(benchmark::State& state) {
  run_heuristic_benchmark(state, "RANDOM", false);
}
void BM_Run_IE_PerSlot(benchmark::State& state) {
  run_heuristic_benchmark(state, "IE", false);
}
void BM_Run_YIE_PerSlot(benchmark::State& state) {
  run_heuristic_benchmark(state, "Y-IE", false);
}
void BM_Run_EIAY_PerSlot(benchmark::State& state) {
  run_heuristic_benchmark(state, "E-IAY", false);
}

BENCHMARK(BM_Run_RANDOM)->Args({5, 2})->Args({10, 2});
BENCHMARK(BM_Run_IE)->Args({5, 2})->Args({10, 2});
BENCHMARK(BM_Run_YIE)->Args({5, 2})->Args({10, 2})->Args({5, 8});
BENCHMARK(BM_Run_EIAY)->Args({5, 2});
BENCHMARK(BM_Run_RANDOM_PerSlot)->Args({5, 2});
BENCHMARK(BM_Run_IE_PerSlot)->Args({5, 2});
BENCHMARK(BM_Run_YIE_PerSlot)->Args({5, 2})->Args({5, 8});
BENCHMARK(BM_Run_EIAY_PerSlot)->Args({5, 2});

/// All-UP view of the bench scenario, owning what the view points into
/// (so it is neither copied nor moved: the spans would dangle).
struct BuildView {
  std::vector<markov::State> states;
  std::vector<model::Holdings> holdings;
  std::vector<long> comm;
  sim::SchedulerView view;

  explicit BuildView(const platform::Scenario& scenario)
      : states(static_cast<std::size_t>(scenario.platform.size()), markov::State::Up),
        holdings(states.size()),
        comm(states.size(), 0) {
    view.platform = &scenario.platform;
    view.app = &scenario.app;
    view.states = states;
    view.holdings = holdings;
    view.comm_remaining = comm;
  }
  BuildView(const BuildView&) = delete;
  BuildView& operator=(const BuildView&) = delete;
};

// Cold build: a new builder per iteration, so every build runs the full
// greedy (no trace to replay from).
void BM_IncrementalBuildCold(benchmark::State& state) {
  const auto scenario = bench_scenario(static_cast<int>(state.range(0)), 2);
  sched::Estimator est(scenario.platform, scenario.app, 1e-6);
  BuildView bv(scenario);
  for (auto _ : state) {
    sched::IncrementalBuilder builder(sched::Rule::IE, est);
    builder.set_memo(false);  // measure the build itself, not the memo hit
    benchmark::DoNotOptimize(builder.build(bv.view));
  }
}
BENCHMARK(BM_IncrementalBuildCold)->Arg(5)->Arg(10);

// Delta rebuild: one long-lived builder; each iteration toggles one
// worker's UP bit before building, so every build diffs exactly one changed
// worker against the previous build's trace. The toggled worker moves on
// every second iteration (after it is back UP), so the mix covers changed
// round winners (partial replay) and changed losers (full replay).
void BM_IncrementalRebuild(benchmark::State& state) {
  const auto scenario = bench_scenario(static_cast<int>(state.range(0)), 2);
  sched::Estimator est(scenario.platform, scenario.app, 1e-6);
  sched::IncrementalBuilder builder(sched::Rule::IE, est);
  builder.set_memo(false);
  BuildView bv(scenario);
  std::size_t i = 0;
  for (auto _ : state) {
    auto& s = bv.states[(i++ / 2) % bv.states.size()];
    s = s == markov::State::Up ? markov::State::Reclaimed : markov::State::Up;
    benchmark::DoNotOptimize(builder.build(bv.view));
  }
}
BENCHMARK(BM_IncrementalRebuild)->Arg(5)->Arg(10);

void BM_AvailabilityAdvance(benchmark::State& state) {
  const auto scenario = bench_scenario(5, 2);
  platform::MarkovAvailability avail(scenario.platform, 3);
  for (auto _ : state) {
    avail.advance();
    benchmark::DoNotOptimize(avail.state(0));
  }
}
BENCHMARK(BM_AvailabilityAdvance);

// ---------------------------------------------------------------------------
// --emit_json mode: reduced-sweep fast-forward comparison.
// ---------------------------------------------------------------------------

// The thread-count-independent outcome digest lives in bench_common.hpp
// (shared with bench_sweep, whose shared-vs-live gate must cover exactly
// the same counters as this bench's on-vs-off gate).
using bench::DigestSink;

struct SweepTiming {
  double seconds = 0.0;
  long slots = 0;
  std::uint64_t digest = 0;
};

SweepTiming run_sweep(const api::ExperimentSpec& base, const std::string& heuristic,
                      bool fast_forward) {
  api::ExperimentSpec spec = base;
  spec.heuristics = {heuristic};
  spec.options.fast_forward = fast_forward;
  api::Session session(spec.options);
  DigestSink digest;
  const auto t0 = std::chrono::steady_clock::now();
  session.run(spec, {&digest});
  SweepTiming out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.slots = digest.slots();
  out.digest = digest.digest();
  return out;
}

int emit_json(const util::Cli& cli) {
  const std::string path = [&] {
    auto v = cli.value("emit_json");
    return (v && !v->empty()) ? *v : std::string("BENCH_engine.json");
  }();

  api::ExperimentSpec spec =
      api::ExperimentSpec::reduced(static_cast<int>(cli.get_long("m", 5)),
                                   cli.get_long("cap", 200'000));
  spec.grid.scenarios_per_cell =
      static_cast<int>(cli.get_long("scenarios", spec.grid.scenarios_per_cell));
  spec.trials = static_cast<int>(cli.get_long("trials", spec.trials));
  spec.options.threads = 1;  // timings must not depend on core count

  const std::vector<std::string> heuristics = {
      "IP", "IE", "IAY",              // passive
      "P-IE", "E-IE", "E-IAY", "Y-IE",  // memoized proactive
      "IY", "RANDOM",                 // per-slot by contract (no skipping)
  };

  namespace json = util::json;
  json::Array rows;
  bool all_identical = true;
  for (const std::string& name : heuristics) {
    const SweepTiming off = run_sweep(spec, name, false);
    const SweepTiming on = run_sweep(spec, name, true);
    const bool identical = on.digest == off.digest && on.slots == off.slots;
    all_identical = all_identical && identical;
    const double on_rate = static_cast<double>(on.slots) / on.seconds;
    const double off_rate = static_cast<double>(off.slots) / off.seconds;
    rows.push_back(json::Object{
        {"name", name},
        {"slots", on.slots},
        {"slots_per_sec_fast_forward", on_rate},
        {"slots_per_sec_per_slot", off_rate},
        {"speedup", on_rate / off_rate},
        {"identical", identical},
    });
    std::fprintf(stderr, "%-6s %9ld slots  ff %8.0f/s  per-slot %8.0f/s  x%.2f  %s\n",
                 name.c_str(), on.slots, on_rate, off_rate, on_rate / off_rate,
                 identical ? "identical" : "MISMATCH");
  }
  const json::Value artifact = json::Object{
      {"bench", "engine_fast_forward"},
      {"sweep",
       json::Object{{"m", spec.grid.ms[0]},
                    {"scenarios_per_cell", spec.grid.scenarios_per_cell},
                    {"trials", spec.trials},
                    {"slot_cap", spec.options.slot_cap}}},
      {"heuristics", std::move(rows)},
      {"all_identical", all_identical},
  };
  if (const int rc = bench::write_json_artifact("bench_engine", path, artifact); rc != 0) {
    return rc;
  }
  return all_identical ? 0 : 2;  // CI fails on any fast-forward divergence
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("emit_json")) return emit_json(cli);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
