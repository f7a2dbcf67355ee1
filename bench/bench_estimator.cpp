// Estimator benchmarks, in two modes:
//
//  * default: google-benchmark microbenchmarks of the §V estimator
//    mathematics — the truncated series (Theorem 5.1), the renewal
//    recursion cross-check, the survival tables, and the full per-candidate
//    evaluation path that the incremental heuristics hammer (m x p times
//    per scheduling decision);
//  * --emit_json[=PATH]: the CI perf smoke for the canonical chain-stats
//    store (DESIGN.md §10) — time cold Estimator construction+evaluate,
//    warm evaluate and survival-table growth with a shared
//    markov::ChainStatsStore vs estimator-level private stores (an
//    Estimator built without a store), verify every estimate is
//    bit-identical between the two, and write the timings plus store hit
//    rates to BENCH_estimator.json. Exit codes: 0 ok, 2 on any
//    shared/private divergence (CI fails on it);
//  * --store_bench[=PATH]: the CI perf smoke for the PERSISTENT store
//    (DESIGN.md §14) — fork fresh child processes of this binary
//    (--store_child) against one on-disk store directory: a no-store
//    baseline, a cold-disk warmup (computes everything, flushes one
//    generation), and a warm-disk pass (fresh process, mmap'd
//    generations). Verifies all three produce bit-identical estimates and
//    writes the timings + persistence counters to BENCH_store.json. Exit
//    codes: 0 ok, 2 on divergence or a warm pass that never hit disk.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "markov/chain_stats.hpp"
#include "markov/persistent_stats.hpp"
#include "markov/series.hpp"
#include "platform/scenario.hpp"
#include "sched/estimator.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace {

using namespace tcgrid;

std::vector<markov::UrMatrix> random_set(std::size_t k, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<markov::UrMatrix> set;
  for (std::size_t i = 0; i < k; ++i) {
    set.push_back(markov::ur_submatrix(markov::TransitionMatrix::paper_random(rng)));
  }
  return set;
}

void BM_CoupledStats_SetSize(benchmark::State& state) {
  const auto set = random_set(static_cast<std::size_t>(state.range(0)), 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::coupled_stats(set, 1e-6));
  }
}
BENCHMARK(BM_CoupledStats_SetSize)->DenseRange(1, 10);

void BM_CoupledStats_Eps(benchmark::State& state) {
  const auto set = random_set(5, 23);
  const double eps = std::pow(10.0, -static_cast<double>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::coupled_stats(set, eps));
  }
}
BENCHMARK(BM_CoupledStats_Eps)->DenseRange(3, 12, 3);

void BM_RenewalRecursion(benchmark::State& state) {
  const auto set = random_set(5, 29);
  const auto horizon = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(markov::renewal_first_return(set, horizon));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RenewalRecursion)->RangeMultiplier(4)->Range(64, 4096)->Complexity();

void BM_EstimatorEvaluate_Cold(benchmark::State& state) {
  // Fresh estimator (private store) every pass: measures uncached set
  // statistics — the cost a session's shared store saves.
  platform::ScenarioParams params;
  params.seed = 5;
  const auto scenario = platform::make_scenario(params);
  std::vector<int> set;
  std::vector<sched::Estimator::CommNeed> needs;
  for (int q = 0; q < static_cast<int>(state.range(0)); ++q) {
    set.push_back(q);
    needs.push_back({q, 12});
  }
  for (auto _ : state) {
    sched::Estimator est(scenario.platform, scenario.app, 1e-6);
    benchmark::DoNotOptimize(est.evaluate(needs, set, 20));
  }
}
BENCHMARK(BM_EstimatorEvaluate_Cold)->DenseRange(2, 10, 2);

void BM_EstimatorEvaluate_ColdSharedStore(benchmark::State& state) {
  // Fresh estimator VIEW per pass over one warm shared store: what a new
  // scenario-cell estimator costs once the session store has seen the
  // chains (the session's steady state).
  platform::ScenarioParams params;
  params.seed = 5;
  const auto scenario = platform::make_scenario(params);
  auto store = std::make_shared<markov::ChainStatsStore>(1e-6);
  std::vector<int> set;
  std::vector<sched::Estimator::CommNeed> needs;
  for (int q = 0; q < static_cast<int>(state.range(0)); ++q) {
    set.push_back(q);
    needs.push_back({q, 12});
  }
  for (auto _ : state) {
    sched::Estimator est(scenario.platform, scenario.app, 1e-6, store);
    benchmark::DoNotOptimize(est.evaluate(needs, set, 20));
  }
}
BENCHMARK(BM_EstimatorEvaluate_ColdSharedStore)->DenseRange(2, 10, 2);

void BM_EstimatorEvaluate_Warm(benchmark::State& state) {
  // Memoized path: what a steady-state scheduling decision costs.
  platform::ScenarioParams params;
  params.seed = 5;
  const auto scenario = platform::make_scenario(params);
  sched::Estimator est(scenario.platform, scenario.app, 1e-6);
  std::vector<int> set;
  std::vector<sched::Estimator::CommNeed> needs;
  for (int q = 0; q < static_cast<int>(state.range(0)); ++q) {
    set.push_back(q);
    needs.push_back({q, 12});
  }
  (void)est.evaluate(needs, set, 20);  // warm the cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(est.evaluate(needs, set, 20));
  }
}
BENCHMARK(BM_EstimatorEvaluate_Warm)->DenseRange(2, 10, 2);

void BM_PNoDownTable(benchmark::State& state) {
  platform::ScenarioParams params;
  params.seed = 7;
  const auto scenario = platform::make_scenario(params);
  const long t = state.range(0);
  for (auto _ : state) {
    sched::Estimator est(scenario.platform, scenario.app, 1e-6);
    benchmark::DoNotOptimize(est.p_no_down(3, t));
  }
}
BENCHMARK(BM_PNoDownTable)->RangeMultiplier(8)->Range(8, 4096);

// ---------------------------------------------------------------------------
// --emit_json mode: shared vs private chain-stats store comparison.
// ---------------------------------------------------------------------------

/// The paper's homogeneous special case: p identical workers on ONE chain
/// (the store's best case: every per-chain quantity computed once, every
/// k-subset one multiset entry).
platform::Scenario homogeneous_scenario(int p) {
  std::vector<platform::Processor> procs;
  for (int q = 0; q < p; ++q) {
    platform::Processor pr;
    pr.id = q;
    pr.speed = 2;
    pr.max_tasks = 10;
    // Sticky chains (self-loops at the top of the paper's [0.90, 0.99]
    // range): the realistic homogeneous fleet, and the regime where the
    // truncated series runs longest — i.e. where re-deriving it per
    // estimator hurts most.
    pr.availability = markov::TransitionMatrix::from_self_loops(0.99, 0.95, 0.90);
    procs.push_back(pr);
  }
  model::Application app;
  app.num_tasks = 5;
  app.t_prog = 10;
  app.t_data = 2;
  app.iterations = 10;
  platform::ScenarioParams params;
  params.p = p;
  return platform::Scenario{platform::Platform(std::move(procs), 5), app, params};
}

struct ModeTiming {
  double cold_us = 0.0;       ///< construct + first-decision evaluates, fresh estimator
  double warm_ns = 0.0;       ///< evaluate on a warm estimator
  double growth_us = 0.0;     ///< p_no_down deep-table growth, fresh estimator
  std::vector<sched::IterationEstimate> probes;  ///< divergence-gate samples
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

/// One mode's measurements. `store` null = private stores (the ablation).
ModeTiming time_mode(const platform::Scenario& scenario,
                     const std::shared_ptr<markov::ChainStatsStore>& store,
                     int reps) {
  ModeTiming out;
  std::vector<int> set;
  std::vector<sched::Estimator::CommNeed> needs;
  const int k = std::min(10, scenario.platform.size());
  for (int q = 0; q < k; ++q) {
    set.push_back(q);
    needs.push_back({q, 12});
  }

  // Cold: construction + a first incremental decision's worth of candidate
  // evaluations (the builder scores growing prefix sets) per fresh
  // estimator — the cost a sweep pays per scenario cell (and per thread)
  // before any cache is warm.
  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    sched::Estimator est(scenario.platform, scenario.app, 1e-6, store);
    out.probes.clear();
    for (int len = 1; len <= k; ++len) {
      out.probes.push_back(est.evaluate(std::span(needs).first(len),
                                        std::span(set).first(len), 20));
    }
  }
  out.cold_us = seconds_since(t0) * 1e6 / reps;

  // Warm: the steady-state decision cost (front-cache hit path).
  sched::Estimator warm(scenario.platform, scenario.app, 1e-6, store);
  (void)warm.evaluate(needs, set, 20);
  const int warm_reps = reps * 200;
  t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < warm_reps; ++r) {
    benchmark::DoNotOptimize(warm.evaluate(needs, set, 20));
  }
  out.warm_ns = seconds_since(t0) * 1e9 / warm_reps;

  // Table growth: a deep survival query on a fresh estimator (shared mode
  // reads the already-grown store table; private mode re-tabulates).
  t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    sched::Estimator est(scenario.platform, scenario.app, 1e-6, store);
    benchmark::DoNotOptimize(est.p_no_down(0, 20'000));
  }
  out.growth_us = seconds_since(t0) * 1e6 / reps;
  return out;
}

/// Warm-resubmit: the serve daemon's cross-request case (DESIGN.md §10).
/// Within one sweep, intern_hits on fresh chains are structurally ~0 — the
/// win shows up when a SECOND submission of the same scenario population
/// constructs fresh estimators against the tenant session's retained,
/// already-populated store. Measured as construction + first-decision
/// evaluates: `first_us` with an empty store per rep (a tenant's first
/// submit, or post-eviction), `resubmit_us` against one retained store.
struct ResubmitTiming {
  double first_us = 0.0;
  double resubmit_us = 0.0;
};

ResubmitTiming time_warm_resubmit(const platform::Scenario& scenario, int reps) {
  ResubmitTiming out;
  std::vector<int> set;
  std::vector<sched::Estimator::CommNeed> needs;
  const int k = std::min(10, scenario.platform.size());
  for (int q = 0; q < k; ++q) {
    set.push_back(q);
    needs.push_back({q, 12});
  }
  auto first_decision = [&](sched::Estimator& est) {
    for (int len = 1; len <= k; ++len) {
      benchmark::DoNotOptimize(
          est.evaluate(std::span(needs).first(len), std::span(set).first(len), 20));
    }
  };

  auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    auto store = std::make_shared<markov::ChainStatsStore>(1e-6);
    sched::Estimator est(scenario.platform, scenario.app, 1e-6, store);
    first_decision(est);
  }
  out.first_us = seconds_since(t0) * 1e6 / reps;

  auto retained = std::make_shared<markov::ChainStatsStore>(1e-6);
  {
    sched::Estimator est(scenario.platform, scenario.app, 1e-6, retained);
    first_decision(est);  // the first submission populates the store
  }
  t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    sched::Estimator est(scenario.platform, scenario.app, 1e-6, retained);
    first_decision(est);
  }
  out.resubmit_us = seconds_since(t0) * 1e6 / reps;
  return out;
}

bool bit_identical(const std::vector<sched::IterationEstimate>& a,
                   const std::vector<sched::IterationEstimate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].p_success != b[i].p_success || a[i].e_time != b[i].e_time) return false;
  }
  return true;
}

int emit_json(const util::Cli& cli) {
  const std::string path = [&] {
    auto v = cli.value("emit_json");
    return (v && !v->empty()) ? *v : std::string("BENCH_estimator.json");
  }();
  const int reps = static_cast<int>(cli.get_long("reps", 200));

  struct Case {
    const char* name;
    platform::Scenario scenario;
  };
  platform::ScenarioParams paper_params;
  paper_params.seed = 5;
  std::vector<Case> cases;
  cases.push_back({"homogeneous", homogeneous_scenario(20)});
  cases.push_back({"paper", platform::make_scenario(paper_params)});

  namespace json = tcgrid::util::json;
  json::Array platforms;
  bool all_identical = true;
  for (const Case& c : cases) {
    // Shared store: session-style, one store for every estimator of the
    // case. Private: each estimator owns its store (built without one).
    auto store = std::make_shared<markov::ChainStatsStore>(1e-6);
    const ModeTiming shared = time_mode(c.scenario, store, reps);
    const ModeTiming priv = time_mode(c.scenario, nullptr, reps);
    const ResubmitTiming resubmit = time_warm_resubmit(c.scenario, reps);
    const bool identical = bit_identical(shared.probes, priv.probes);
    all_identical = all_identical && identical;
    const auto counters = store->counters();

    platforms.push_back(json::Object{
        {"name", c.name},
        {"p", static_cast<unsigned long long>(c.scenario.platform.size())},
        {"distinct_chains", counters.chains},
        {"cold_us", json::Object{{"shared", shared.cold_us},
                                 {"private", priv.cold_us},
                                 {"speedup", priv.cold_us / shared.cold_us}}},
        {"warm_evaluate_ns",
         json::Object{{"shared", shared.warm_ns}, {"private", priv.warm_ns}}},
        {"table_growth_us",
         json::Object{{"shared", shared.growth_us}, {"private", priv.growth_us}}},
        {"warm_resubmit_us",
         json::Object{{"first_submit", resubmit.first_us},
                      {"resubmit", resubmit.resubmit_us},
                      {"speedup", resubmit.first_us / resubmit.resubmit_us}}},
        {"store", json::Object{{"chains", counters.chains},
                               {"intern_hits", counters.intern_hits},
                               {"set_entries", counters.set_entries},
                               {"set_hits", counters.set_hits},
                               {"set_misses", counters.set_misses},
                               {"survival_entries", counters.survival_entries},
                               {"bytes", counters.bytes}}},
        {"identical", identical},
    });
    std::fprintf(stderr,
                 "%-12s cold %8.2fus shared / %8.2fus private (x%.1f)  warm "
                 "%6.0fns / %6.0fns  growth %8.2fus / %8.2fus  resubmit "
                 "%8.2fus vs first %8.2fus (x%.1f)  %s\n",
                 c.name, shared.cold_us, priv.cold_us, priv.cold_us / shared.cold_us,
                 shared.warm_ns, priv.warm_ns, shared.growth_us, priv.growth_us,
                 resubmit.resubmit_us, resubmit.first_us,
                 resubmit.first_us / resubmit.resubmit_us,
                 identical ? "identical" : "MISMATCH");
  }
  const json::Value artifact = json::Object{
      {"bench", "estimator_chain_stats"},
      {"reps", reps},
      {"platforms", std::move(platforms)},
      {"all_identical", all_identical},
  };
  if (const int rc = tcgrid::bench::write_json_artifact("bench_estimator", path, artifact);
      rc != 0) {
    return rc;
  }
  return all_identical ? 0 : 2;  // CI fails on shared/private divergence
}

// ---------------------------------------------------------------------------
// --store_bench mode: cold-process-warm-disk persistent store comparison.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a_mix(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    h ^= (bits >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

/// Child body (--store_child=MODE [--store_dir=D]): the per-scenario-cell
/// workload a sweep pays in a fresh process — per rep, a fresh store (over
/// the persistent cache when --store_dir is given) and a fresh estimator
/// doing one incremental first decision plus a deep survival-table query.
/// Emits exactly one JSON line on stdout: timing, a bit-exact digest of
/// every estimate, and the persistence counters.
int store_child(const util::Cli& cli) {
  const std::string dir = cli.value("store_dir").value_or("");
  const int reps = static_cast<int>(cli.get_long("reps", 30));

  std::shared_ptr<markov::PersistentChainStats> persist;
  if (!dir.empty()) {
    persist = std::make_shared<markov::PersistentChainStats>(dir, 1e-6);
  }

  struct Case {
    const char* name;
    platform::Scenario scenario;
  };
  platform::ScenarioParams paper_params;
  paper_params.seed = 5;
  std::vector<Case> cases;
  cases.push_back({"homogeneous", homogeneous_scenario(20)});
  cases.push_back({"paper", platform::make_scenario(paper_params)});

  std::uint64_t digest = 14695981039346656037ull;
  unsigned long long probes = 0;
  std::vector<std::shared_ptr<markov::ChainStatsStore>> last_stores(cases.size());

  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < reps; ++r) {
    for (std::size_t ci = 0; ci < cases.size(); ++ci) {
      const platform::Scenario& scenario = cases[ci].scenario;
      auto store = persist != nullptr
                       ? std::make_shared<markov::ChainStatsStore>(1e-6, persist)
                       : std::make_shared<markov::ChainStatsStore>(1e-6);
      sched::Estimator est(scenario.platform, scenario.app, 1e-6, store);
      std::vector<int> set;
      std::vector<sched::Estimator::CommNeed> needs;
      const int k = std::min(10, scenario.platform.size());
      for (int q = 0; q < k; ++q) {
        set.push_back(q);
        needs.push_back({q, 12});
      }
      for (int len = 1; len <= k; ++len) {
        const sched::IterationEstimate e = est.evaluate(
            std::span(needs).first(len), std::span(set).first(len), 20);
        if (r == 0) {  // the digest covers one rep; later reps are replicas
          digest = fnv1a_mix(fnv1a_mix(digest, e.p_success), e.e_time);
          probes += 2;
        }
      }
      const double deep = est.p_no_down(0, 20'000);
      if (r == 0) {
        digest = fnv1a_mix(digest, deep);
        probes += 1;
      }
      benchmark::DoNotOptimize(deep);
      last_stores[ci] = std::move(store);
    }
  }
  const double work_us = seconds_since(t0) * 1e6 / reps;

  unsigned long long flushed = 0;
  if (persist != nullptr) {
    // One generation per case store; a warm child's stores contain nothing
    // new, so these flushes write nothing (asserted by the parent).
    for (const auto& store : last_stores) flushed += persist->flush_from(*store);
  }

  namespace json = tcgrid::util::json;
  char digest_hex[32];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  json::Object line{
      {"work_us", work_us},
      {"probes", probes},
      {"digest", std::string(digest_hex)},
      {"flushed", flushed},
  };
  if (persist != nullptr) {
    const auto p = persist->counters();
    line.emplace_back(
        "persist",
        json::Object{
            {"generations", static_cast<unsigned long long>(p.generations)},
            {"mapped_bytes", static_cast<unsigned long long>(p.mapped_bytes)},
            {"chains", static_cast<unsigned long long>(p.chains)},
            {"sets", static_cast<unsigned long long>(p.sets)},
            {"chain_hits", static_cast<unsigned long long>(p.chain_hits)},
            {"chain_misses", static_cast<unsigned long long>(p.chain_misses)},
            {"set_hits", static_cast<unsigned long long>(p.set_hits)},
            {"set_misses", static_cast<unsigned long long>(p.set_misses)},
            {"skipped_generations",
             static_cast<unsigned long long>(p.skipped_generations)},
            {"flushed_entries", static_cast<unsigned long long>(p.flushed_entries)},
        });
  }
  std::printf("%s\n", json::dump(json::Value{std::move(line)}).c_str());
  return 0;
}

/// Parent: run the three children against one fresh store directory and
/// compare. Uses popen on /proc/self/exe so every pass is a genuinely cold
/// process (fresh address space, nothing warm but the disk).
int store_bench(const util::Cli& cli, const char* argv0) {
  namespace fs = std::filesystem;
  namespace json = tcgrid::util::json;
  const std::string path = [&] {
    auto v = cli.value("store_bench");
    return (v && !v->empty()) ? *v : std::string("BENCH_store.json");
  }();
  const int reps = static_cast<int>(cli.get_long("reps", 30));

  char exe_buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe_buf, sizeof exe_buf - 1);
  const std::string exe = n > 0 ? std::string(exe_buf, static_cast<std::size_t>(n))
                                : std::string(argv0);

  const fs::path dir =
      fs::temp_directory_path() / ("tcgrid_store_bench_" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(dir, ec);

  auto run_child = [&](const char* label, bool with_dir) -> json::Value {
    std::string cmd = "'" + exe + "' --store_child=1 --reps=" + std::to_string(reps);
    if (with_dir) cmd += " --store_dir='" + dir.string() + "'";
    FILE* pipe = ::popen(cmd.c_str(), "r");
    if (pipe == nullptr) throw std::runtime_error("popen failed");
    std::string out;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, got);
    const int rc = ::pclose(pipe);
    if (rc != 0 || out.empty()) {
      throw std::runtime_error(std::string("store child '") + label + "' failed");
    }
    return json::parse(out);
  };

  int rc = 0;
  try {
    const json::Value nostore = run_child("nostore", /*with_dir=*/false);
    const json::Value warmup = run_child("warmup", /*with_dir=*/true);
    const json::Value warm = run_child("warm", /*with_dir=*/true);

    const std::string d0 = nostore.find("digest")->as_string();
    const std::string d1 = warmup.find("digest")->as_string();
    const std::string d2 = warm.find("digest")->as_string();
    const bool identical = d0 == d1 && d0 == d2;

    const double nostore_us = nostore.find("work_us")->as_double();
    const double warmup_us = warmup.find("work_us")->as_double();
    const double warm_us = warm.find("work_us")->as_double();
    const double speedup = nostore_us / warm_us;

    const json::Value* warm_persist = warm.find("persist");
    const auto persist_u64 = [&](const char* key) -> unsigned long long {
      const json::Value* v = warm_persist != nullptr ? warm_persist->find(key) : nullptr;
      return v != nullptr ? static_cast<unsigned long long>(v->as_double()) : 0;
    };
    const unsigned long long warm_chain_hits = persist_u64("chain_hits");
    const unsigned long long warm_set_hits = persist_u64("set_hits");
    const unsigned long long warm_flushed =
        static_cast<unsigned long long>(warm.find("flushed")->as_double());

    unsigned long long disk_bytes = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
      if (entry.is_regular_file()) disk_bytes += entry.file_size();
    }

    const json::Value artifact = json::Object{
        {"bench", "persistent_store"},
        {"reps", reps},
        {"nostore_us", nostore_us},
        {"warmup_us", warmup_us},
        {"warm_us", warm_us},
        {"speedup_warm_vs_nostore", speedup},
        {"identical", identical},
        {"warm_chain_hits", warm_chain_hits},
        {"warm_set_hits", warm_set_hits},
        {"warm_flushed_entries", warm_flushed},
        {"store_disk_bytes", disk_bytes},
        {"warm_persist", warm_persist != nullptr ? *warm_persist : json::Value{}},
    };
    if (const int wrc = tcgrid::bench::write_json_artifact("bench_store", path, artifact);
        wrc != 0) {
      rc = wrc;
    }
    std::fprintf(stderr,
                 "store_bench  nostore %9.1fus  warmup %9.1fus  warm %9.1fus "
                 "(x%.1f)  warm hits %llu chain / %llu set  disk %llu bytes  %s\n",
                 nostore_us, warmup_us, warm_us, speedup, warm_chain_hits,
                 warm_set_hits, disk_bytes, identical ? "identical" : "MISMATCH");
    if (!identical) {
      std::fprintf(stderr, "store_bench: FAIL — estimates diverge across store modes\n");
      rc = 2;
    } else if (warm_chain_hits == 0) {
      std::fprintf(stderr, "store_bench: FAIL — warm pass never hit the disk store\n");
      rc = 2;
    } else if (warm_flushed != 0) {
      std::fprintf(stderr,
                   "store_bench: FAIL — warm pass re-flushed %llu entries "
                   "(cache should already hold them)\n",
                   warm_flushed);
      rc = 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "store_bench: %s\n", e.what());
    rc = 1;
  }
  fs::remove_all(dir, ec);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  if (cli.has("store_child")) return store_child(cli);
  if (cli.has("store_bench")) return store_bench(cli, argv[0]);
  if (cli.has("emit_json")) return emit_json(cli);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
