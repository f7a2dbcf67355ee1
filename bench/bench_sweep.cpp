// Trial-major sweep bench: shared materialized realizations vs per-heuristic
// live generation (DESIGN.md §9).
//
// Runs the reduced sweep over a representative heuristic set THREE ways
// with the same seeds — realization sharing on (the default budget),
// sharing disabled (realization_budget = 0, i.e. every heuristic run
// regenerates its availability stream), and sharing on with the obs
// metrics layer enabled — verifies all outcomes are bit-identical via an
// order-independent digest over every per-trial counter, and writes wall
// times, rows/sec, the sharing speedup and the obs overhead ratio to
// BENCH_sweep.json. The CI Release job runs this and uploads the artifact;
// the committed BENCH_sweep.json at the repo root is the tracked baseline.
// The "obs" section is the enabled-path overhead measurement DESIGN.md §12
// cites (budget: < 2% on rows/sec); the other arms run with obs
// disabled, i.e. they also measure the disabled path at parity.
//
// All ratio-of-wall-time figures sit on top of machine noise: the artifact
// therefore records a `noise_floor` — the worst relative best-to-worst rep
// spread seen by any arm, null under --reps 1, where a single rep has no
// spread to measure — and headline overheads are clamped at 0 (a
// negative overhead is indistinguishable from noise, not a real win). Raw
// unclamped ratios are kept alongside for honesty.
//
// Exit codes: 0 ok, 2 on any digest divergence (CI fails on it).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>

#include "api/api.hpp"
#include "bench_common.hpp"
#include "markov/chain_stats.hpp"
#include "obs/obs.hpp"
#include "util/cli.hpp"

namespace {

using namespace tcgrid;
using bench::DigestSink;

struct SweepTiming {
  double seconds = 0.0;      ///< best (min) over repetitions
  double worst_seconds = 0.0;  ///< worst (max) over repetitions
  std::size_t rows = 0;
  long slots = 0;
  std::uint64_t digest = 0;
  markov::ChainStatsStore::Counters store{};  ///< chain-stats store stats
};

/// Best-to-worst rep spread of one arm, relative to its best time. The max
/// over arms is the run's noise floor: any ratio between two arms that is
/// smaller than this cannot be distinguished from scheduler jitter.
double rep_spread(const SweepTiming& t) {
  return t.seconds > 0.0 ? t.worst_seconds / t.seconds - 1.0 : 0.0;
}

SweepTiming run_sweep(const api::ExperimentSpec& spec) {
  api::Session session(spec.options);
  DigestSink digest;
  const auto t0 = std::chrono::steady_clock::now();
  session.run(spec, {&digest});
  SweepTiming out;
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.worst_seconds = out.seconds;
  out.rows = digest.rows();
  out.slots = digest.slots();
  out.digest = digest.digest();
  out.store = session.chain_store_counters();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv, {"emit_json", "m", "cap", "scenarios", "trials", "reps"});
  const std::string path = [&] {
    auto v = cli.value("emit_json");
    return (v && !v->empty()) ? *v : std::string("BENCH_sweep.json");
  }();

  // Default cap 50k, not bench_engine's 200k: this bench measures the
  // sharing lever, and a unit's materialization cost is set by its LONGEST
  // run. At 200k+ the sweep's wall time is mostly RANDOM simulating
  // cap-length failures — a single consumer of each realization's tail,
  // which no scheme can share — while 50k keeps failed runs bounded near
  // the longest successful makespans (tens of thousands of slots), so the
  // measurement reflects the mixed workload sweeps actually run.
  api::ExperimentSpec spec =
      api::ExperimentSpec::reduced(static_cast<int>(cli.get_long("m", 5)),
                                   cli.get_long("cap", 50'000));
  spec.grid.scenarios_per_cell =
      static_cast<int>(cli.get_long("scenarios", spec.grid.scenarios_per_cell));
  spec.trials = static_cast<int>(cli.get_long("trials", spec.trials));
  spec.options.threads = 1;  // timings must not depend on core count

  // The trial-major sharing lever scales with how many heuristics consume
  // one realization: use the same representative set bench_engine times
  // (all quiescence classes represented).
  spec.heuristics = {
      "IP", "IE", "IAY",                // passive
      "P-IE", "E-IE", "E-IAY", "Y-IE",  // memoized proactive
      "IY", "RANDOM",                   // per-slot by contract (no skipping)
  };

  api::ExperimentSpec live = spec;
  live.options.realization_budget = 0;  // per-heuristic live generation

  // Interleaved repetitions, best-of per mode: wall times on shared CI
  // runners jitter by tens of percent, and min-of-N against min-of-N is the
  // standard way to compare two deterministic computations under that noise.
  // The max is kept too: the per-arm best-to-worst spread is the run's
  // measured noise floor, reported next to every ratio built from these
  // times.
  const long reps = std::max(1L, cli.get_long("reps", 5));
  SweepTiming live_t;
  SweepTiming shared_t;
  SweepTiming obs_t;
  for (long r = 0; r < reps; ++r) {
    const SweepTiming l = run_sweep(live);
    const SweepTiming s = run_sweep(spec);
    // The shared sweep with obs metric updates enabled — the
    // instrumented-path overhead measurement. Interleaved with the other
    // arms so all of them see the same machine noise.
    obs::configure({.enabled = true});
    const SweepTiming o = run_sweep(spec);
    obs::configure({});
    if (r == 0) {
      live_t = l;
      shared_t = s;
      obs_t = o;
    } else {
      if (l.digest != live_t.digest || s.digest != shared_t.digest ||
          o.digest != obs_t.digest) {
        std::fprintf(stderr, "bench_sweep: nondeterministic repetition digest\n");
        return 2;
      }
      live_t.seconds = std::min(live_t.seconds, l.seconds);
      shared_t.seconds = std::min(shared_t.seconds, s.seconds);
      obs_t.seconds = std::min(obs_t.seconds, o.seconds);
      live_t.worst_seconds = std::max(live_t.worst_seconds, l.seconds);
      shared_t.worst_seconds = std::max(shared_t.worst_seconds, s.seconds);
      obs_t.worst_seconds = std::max(obs_t.worst_seconds, o.seconds);
    }
  }

  const bool identical =
      shared_t.digest == live_t.digest && shared_t.rows == live_t.rows &&
      obs_t.digest == shared_t.digest && obs_t.rows == shared_t.rows;
  const double shared_rate = static_cast<double>(shared_t.rows) / shared_t.seconds;
  const double live_rate = static_cast<double>(live_t.rows) / live_t.seconds;
  const double speedup = live_t.seconds / shared_t.seconds;

  // Chain-stats store statistics of the shared arm (both arms share the
  // store — realization sharing is the axis under test here), so the wall
  // times are attributable: how much series math the store deduplicated.
  const auto& cs = shared_t.store;
  const double set_hit_rate =
      cs.set_hits + cs.set_misses == 0
          ? 0.0
          : static_cast<double>(cs.set_hits) /
                static_cast<double>(cs.set_hits + cs.set_misses);

  const double obs_rate = static_cast<double>(obs_t.rows) / obs_t.seconds;
  // Raw ratio can land below zero when the instrumented run happens to draw
  // the quieter reps; the headline overhead is clamped at 0 so the artifact
  // never advertises instrumentation as a speedup. The noise floor says how
  // much of any small ratio is attributable to jitter.
  const double obs_overhead_raw = obs_t.seconds / shared_t.seconds - 1.0;
  const double obs_overhead = std::max(0.0, obs_overhead_raw);
  const double noise_floor = std::max(
      {rep_spread(shared_t), rep_spread(live_t), rep_spread(obs_t)});
  const bool floor_measured = reps >= 2;

  namespace json = util::json;
  const json::Value artifact(json::Object{
      {"bench", "sweep_shared_realizations"},
      {"sweep", json::Object{{"m", spec.grid.ms[0]},
                             {"scenarios_per_cell", spec.grid.scenarios_per_cell},
                             {"trials", spec.trials},
                             {"slot_cap", spec.options.slot_cap},
                             {"heuristics", spec.heuristics.size()}}},
      {"rows", shared_t.rows},
      {"slots", shared_t.slots},
      {"shared", json::Object{{"seconds", shared_t.seconds},
                              {"rows_per_sec", shared_rate}}},
      {"live",
       json::Object{{"seconds", live_t.seconds}, {"rows_per_sec", live_rate}}},
      {"speedup", speedup},
      {"obs", json::Object{{"seconds", obs_t.seconds},
                           {"rows_per_sec", obs_rate},
                           {"overhead", obs_overhead},
                           {"overhead_raw", obs_overhead_raw}}},
      {"noise_floor", floor_measured ? json::Value(noise_floor) : json::Value(nullptr)},
      {"chain_store", json::Object{{"chains", cs.chains},
                                   {"intern_hits", cs.intern_hits},
                                   {"set_entries", cs.set_entries},
                                   {"set_hits", cs.set_hits},
                                   {"set_misses", cs.set_misses},
                                   {"set_hit_rate", set_hit_rate},
                                   {"survival_entries", cs.survival_entries},
                                   {"bytes", cs.bytes}}},
      {"identical", identical},
  });
  if (const int rc = bench::write_json_artifact("bench_sweep", path, artifact);
      rc != 0) {
    return rc;
  }
  std::fprintf(stderr,
               "bench_sweep: %zu rows  slots=%ld  shared %.3fs (%.0f rows/s)  "
               "live %.3fs (%.0f rows/s)  speedup x%.2f  %s\n",
               shared_t.rows, shared_t.slots, shared_t.seconds, shared_rate, live_t.seconds,
               live_rate, speedup, identical ? "identical" : "MISMATCH");
  char floor_text[32] = "unmeasured (1 rep)";
  if (floor_measured) {
    std::snprintf(floor_text, sizeof floor_text, "%.2f%%", 100.0 * noise_floor);
  }
  std::fprintf(stderr,
               "bench_sweep: obs enabled %.3fs (%.0f rows/s)  overhead %.2f%% "
               "(raw %+.2f%%, noise floor %s)\n",
               obs_t.seconds, obs_rate, 100.0 * obs_overhead,
               100.0 * obs_overhead_raw, floor_text);
  std::fprintf(stderr,
               "bench_sweep: chain store  %zu chains (+%zu dedup hits)  %zu set "
               "entries (%.1f%% hit rate)  %zu survival entries  %zu bytes\n",
               cs.chains, cs.intern_hits, cs.set_entries, 100.0 * set_hit_rate,
               cs.survival_entries, cs.bytes);
  return identical ? 0 : 2;  // CI fails on any digest divergence
}
