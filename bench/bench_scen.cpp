// Scenario-subsystem bench: (1) availability stepping — the per-slot virtual
// pull (the engine's pre-block pattern: size()+1 virtual calls per slot)
// against the block-stepped fast path (one fill_block per 256 slots) for
// every built-in family, verifying the realizations are identical while
// timing them; (2) the engine-level effect of the block path on a reduced
// sweep; (3) the §VII-B cross-family mismatch sweep, end to end through the
// scen registry: the "weibull" family is the true availability process, a
// Markov model is fitted to its recorded traces (trace_io MLE), and the
// Markov heuristics run against the true process with only the flawed model.
//
// Knobs: --slots N (stepping slots), --scenarios N --trials N --cap N
// (mismatch sweep), --shape S (Weibull shape), --train N (training slots),
// --seed N, --check X (exit 1 unless the markov block speedup reaches Xx).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "expt/runner.hpp"
#include "platform/scenario.hpp"
#include "scen/scen.hpp"
#include "sched/registry.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace tcgrid;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Checksum of a pulled timeline so the two paths are verified identical (and
// the compiler cannot elide the pulls).
struct PullResult {
  double seconds = 0.0;
  std::uint64_t checksum = 0;
};

PullResult pull_per_slot(platform::AvailabilitySource& source, long slots) {
  PullResult out;
  const int p = source.size();
  std::vector<markov::State> states(static_cast<std::size_t>(p));
  const auto t0 = std::chrono::steady_clock::now();
  for (long t = 0; t < slots; ++t) {
    if (t > 0) source.advance();
    for (int q = 0; q < p; ++q) states[static_cast<std::size_t>(q)] = source.state(q);
    out.checksum = out.checksum * 1099511628211ULL +
                   static_cast<std::uint64_t>(states[static_cast<std::size_t>(t % p)]);
  }
  out.seconds = seconds_since(t0);
  return out;
}

PullResult pull_blocks(platform::AvailabilitySource& source, long slots, long block) {
  PullResult out;
  const auto p = static_cast<std::size_t>(source.size());
  std::vector<markov::State> buf(p * static_cast<std::size_t>(block));
  std::vector<markov::State> states(p);
  long pos = block;
  const auto t0 = std::chrono::steady_clock::now();
  for (long t = 0; t < slots; ++t) {
    if (pos == block) {
      source.fill_block(buf.data(), block);
      pos = 0;
    }
    std::copy_n(buf.data() + static_cast<std::size_t>(pos) * p, p, states.data());
    ++pos;
    out.checksum = out.checksum * 1099511628211ULL +
                   static_cast<std::uint64_t>(states[static_cast<std::size_t>(t) % p]);
  }
  out.seconds = seconds_since(t0);
  return out;
}

double best_of(int reps, const std::function<double()>& run) {
  double best = run();
  for (int i = 1; i < reps; ++i) best = std::min(best, run());
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv, {"slots", "scenarios", "trials", "cap", "train", "shape", "seed", "check"});
  const long slots = cli.get_long("slots", 1'000'000);
  const int scenarios = static_cast<int>(cli.get_long("scenarios", 2));
  const int trials = static_cast<int>(cli.get_long("trials", 2));
  const long cap = cli.get_long("cap", 200'000);
  const double shape = cli.get_double("shape", 0.7);
  const long train_slots = cli.get_long("train", 20'000);
  const auto seed = static_cast<std::uint64_t>(cli.get_long("seed", 42));

  // ---------------------------------------------------- 1. stepping speed ----
  std::cout << "== Availability stepping: per-slot virtual pull vs block path ==\n"
            << "p=20, " << slots << " slots per family (best of 3)\n\n";

  platform::ScenarioParams pparams;
  pparams.seed = seed;
  const auto scenario0 = platform::make_scenario(pparams);

  util::Table step_table(
      {"family", "per-slot ns/proc-slot", "block ns/proc-slot", "speedup", "identical"});
  double markov_speedup = 0.0;
  for (const char* name : {"markov", "weibull", "daynight"}) {
    const auto family = scen::availability_family(name);
    PullResult slow, fast;
    const double t_slow = best_of(3, [&] {
      auto src = family->make_source(scenario0.platform, seed + 1,
                                     platform::InitialStates::Stationary);
      slow = pull_per_slot(*src, slots);
      return slow.seconds;
    });
    const double t_fast = best_of(3, [&] {
      auto src = family->make_source(scenario0.platform, seed + 1,
                                     platform::InitialStates::Stationary);
      fast = pull_blocks(*src, slots, 256);
      return fast.seconds;
    });
    const double denom = static_cast<double>(slots) * scenario0.platform.size();
    const double speedup = t_slow / t_fast;
    if (std::string(name) == "markov") markov_speedup = speedup;
    step_table.add_row({name, util::Table::num(t_slow * 1e9 / denom, 2),
                        util::Table::num(t_fast * 1e9 / denom, 2),
                        util::Table::num(speedup, 2) + "x",
                        slow.checksum == fast.checksum ? "yes" : "NO (BUG)"});
  }
  std::cout << step_table.str() << "\n";

  // ------------------------------------------- 2. engine-level reduced sweep ----
  std::cout << "== Engine effect: reduced sweep, avail_block 1 vs 256 ==\n";
  auto sweep_with_block = [&](long block) {
    api::ExperimentSpec spec = api::ExperimentSpec::reduced(5, cap);
    spec.grid.ncoms = {5};
    spec.grid.wmins = {1, 4, 8};
    spec.heuristics = {"IE", "Y-IE", "P-IE"};
    spec.options.threads = 1;
    spec.options.seed = seed;
    spec.options.avail_block = block;
    long makespan_sum = 0;
    struct SumSink final : api::ResultSink {
      long* sum;
      explicit SumSink(long* s) : sum(s) {}
      void consume(const api::ResultRow& row) override { *sum += row.result->makespan; }
    } sink(&makespan_sum);
    const auto t0 = std::chrono::steady_clock::now();
    api::Session().run(spec, {&sink});
    return std::pair<double, long>(seconds_since(t0), makespan_sum);
  };
  const auto [t_b1, sum_b1] = sweep_with_block(1);
  const auto [t_b256, sum_b256] = sweep_with_block(256);
  std::cout << "  avail_block=1:   " << util::Table::num(t_b1, 2) << " s\n"
            << "  avail_block=256: " << util::Table::num(t_b256, 2) << " s ("
            << util::Table::num(t_b1 / t_b256, 2) << "x, results "
            << (sum_b1 == sum_b256 ? "identical" : "DIFFER (BUG)") << ")\n\n";

  // ----------------------------------------------- 3. cross-family mismatch ----
  std::cout << "== SVII-B mismatch sweep through the family registry ==\n"
            << scenarios << " scenario(s) x " << trials << " trial(s), shape " << shape
            << ", " << train_slots << "-slot training trace, cap " << cap << "\n\n";

  scen::register_availability_family(
      scen::make_weibull_family("weibull-bench", scen::WeibullFamilyParams{shape}));
  const auto truth_family = scen::availability_family("weibull-bench");
  const std::vector<std::string> heuristics = {"IE", "Y-IE", "P-IE", "E-IAY", "RANDOM"};

  std::vector<double> sum_a(heuristics.size(), 0.0), sum_b(heuristics.size(), 0.0);
  std::vector<int> count_a(heuristics.size(), 0), count_b(heuristics.size(), 0);
  api::Options options;
  options.slot_cap = cap;
  api::Session session(options);

  for (int sc = 0; sc < scenarios; ++sc) {
    platform::ScenarioParams params;
    params.wmin = 1 + 3 * sc;
    params.seed = seed + 100 + static_cast<std::uint64_t>(sc);
    const auto scenario = platform::make_scenario(params);

    // The flawed belief: a Markov chain fitted by MLE to the true process.
    const auto believed = scen::fit_markov_platform(scenario.platform, *truth_family,
                                                    train_slots, params.seed ^ 0xbeef);
    sched::Estimator fitted_est(believed, scenario.app, 1e-6);

    for (int trial = 0; trial < trials; ++trial) {
      for (std::size_t h = 0; h < heuristics.size(); ++h) {
        // World A: the paper's laboratory — Markov truth, true model.
        const auto ra = session.run_trial(params, heuristics[h], trial);
        if (ra.success) {
          sum_a[h] += static_cast<double>(ra.makespan);
          ++count_a[h];
        }
        // World B: semi-Markov truth via the registry, fitted (wrong) model.
        auto truth = truth_family->make_source(scenario.platform,
                                               expt::trial_seed(scenario, trial),
                                               platform::InitialStates::Stationary);
        auto scheduler = sched::make_scheduler(
            heuristics[h], fitted_est,
            util::derive_seed(params.seed, 2000 + static_cast<std::uint64_t>(trial)));
        const auto rb =
            session.run_custom(scenario.platform, scenario.app, *truth, *scheduler);
        if (rb.success) {
          sum_b[h] += static_cast<double>(rb.makespan);
          ++count_b[h];
        }
      }
    }
  }

  auto mean = [](double sum, int n) { return n > 0 ? sum / n : 0.0; };
  auto diff = [](double x, double ref) {
    return ref > 0.0 && x > 0.0 ? 100.0 * (x - ref) / std::min(x, ref) : 0.0;
  };
  const double ie_a = mean(sum_a[0], count_a[0]);
  const double ie_b = mean(sum_b[0], count_b[0]);
  util::Table mismatch({"heuristic", "markov world", "%diff", "weibull world", "%diff",
                        "fails A", "fails B"});
  const int total = scenarios * trials;
  for (std::size_t h = 0; h < heuristics.size(); ++h) {
    const double a = mean(sum_a[h], count_a[h]);
    const double b = mean(sum_b[h], count_b[h]);
    mismatch.add_row({heuristics[h], util::Table::num(a, 0),
                      util::Table::num(diff(a, ie_a)), util::Table::num(b, 0),
                      util::Table::num(diff(b, ie_b)),
                      std::to_string(total - count_a[h]),
                      std::to_string(total - count_b[h])});
  }
  std::cout << mismatch.str()
            << "\nReading: negative %diff in the weibull world means the heuristic's"
               "\nadvantage over IE survives model misspecification (paper SVII-B).\n";

  // --check X turns the speedup report into a gate (used by the acceptance
  // run; CI smoke-runs skip it to stay robust to noisy shared runners).
  const double min_speedup = cli.get_double("check", 0.0);
  if (markov_speedup < min_speedup) {
    std::cout << "\nFAIL: markov block-path speedup " << util::Table::num(markov_speedup, 2)
              << "x is below the required " << util::Table::num(min_speedup, 2) << "x.\n";
    return 1;
  }
  return 0;
}
