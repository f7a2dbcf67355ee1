// Tests of the canonical chain-statistics store (DESIGN.md §10):
//
//   * interning is by bit content: identical UR sub-matrices share one
//     ChainId, and per-chain quantities are computed once per chain;
//   * shared survival tables are bit-identical to direct UrRow tabulation,
//     resume across callers, and honour the subnormal cut / exact-zero cap;
//     their segments' bytes stay within twice the published entries, and
//     lock-free readers racing a growing writer read exactly its doubles;
//   * set-level statistics are keyed by the sorted multiset of chain ids —
//     on a homogeneous platform every k-subset of workers hits ONE store
//     entry per k — and evaluated in content order, so shared and private
//     stores produce bit-identical doubles;
//   * sched::Estimator resolves identically through a shared and a private
//     store (p_no_down, proc/set stats, full evaluate), for the paper's
//     heterogeneous platform and for clustered platforms;
//   * full sweep bit-identity: api::Session (one shared store) gives the
//     rows of a hand-wired private-store reference for all 25 heuristics
//     across every availability family, and for the heterogeneous
//     "clusters" platform family;
//   * eviction of the estimator's set front cache and build memo is
//     epoch-safe: references held across a cap-triggered eviction keep
//     reading their values (the historical clear()-dangle hazard);
//   * api::Session observability: chain_store_counters() populates during
//     runs and resets with clear_caches(); a second thread rebuilding its
//     estimators against the warm store interns into hits and reproduces
//     the first thread's rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "expt/runner.hpp"
#include "markov/chain_stats.hpp"
#include "platform/scenario.hpp"
#include "platform/semi_markov.hpp"
#include "scen/scen.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"

namespace tcgrid {
namespace {

using markov::ChainId;
using markov::ChainStatsStore;

markov::UrMatrix ur_of(double uu, double rr) {
  return markov::ur_submatrix(markov::TransitionMatrix::from_self_loops(uu, rr, 0.9));
}

platform::Platform homogeneous_platform(int p, int ncom = 5, double uu = 0.95) {
  std::vector<platform::Processor> procs;
  for (int q = 0; q < p; ++q) {
    platform::Processor pr;
    pr.speed = 2;
    pr.max_tasks = 8;
    pr.availability = markov::TransitionMatrix::from_self_loops(uu, 0.9, 0.9);
    procs.push_back(pr);
  }
  return platform::Platform(std::move(procs), ncom);
}

model::Application small_app(int m = 4) {
  model::Application app;
  app.num_tasks = m;
  app.t_prog = 10;
  app.t_data = 2;
  return app;
}

// ------------------------------------------------------------------- store ----

TEST(ChainStatsStore, InternsByBitContent) {
  ChainStatsStore store(1e-9);
  const auto a = ur_of(0.95, 0.90);
  const auto b = ur_of(0.95, 0.90);  // same content, separate object
  const auto c = ur_of(0.80, 0.90);
  const ChainId ia = store.intern(a);
  const ChainId ib = store.intern(b);
  const ChainId ic = store.intern(c);
  EXPECT_EQ(ia, ib);
  EXPECT_NE(ia, ic);
  const auto counters = store.counters();
  EXPECT_EQ(counters.chains, 2u);
  EXPECT_EQ(counters.intern_hits, 1u);
  EXPECT_GT(counters.bytes, 0u);
}

TEST(ChainStatsStore, RejectsBadEps) {
  EXPECT_THROW(ChainStatsStore(0.0), std::invalid_argument);
  EXPECT_THROW(ChainStatsStore(-1e-6), std::invalid_argument);
}

TEST(ChainStatsStore, ChainStatsMatchDirectComputation) {
  ChainStatsStore store(1e-10);
  const auto m = ur_of(0.93, 0.88);
  const ChainId id = store.intern(m);
  const markov::UrMatrix procs[] = {m};
  const auto direct = markov::coupled_stats(procs, 1e-10);
  const auto stored = store.chain_stats(id);
  EXPECT_EQ(stored.p_plus, direct.p_plus);  // bit-identical, not just near
  EXPECT_EQ(stored.ec, direct.ec);
  EXPECT_EQ(stored.failure_free, direct.failure_free);
}

TEST(ChainStatsStore, SetStatsEvaluateInContentOrderRegardlessOfIdOrder) {
  // Intern in one order, query in another: the quad must be the one content
  // order produces, independent of intern ids or the caller's spelling.
  const auto a = ur_of(0.97, 0.85);
  const auto b = ur_of(0.91, 0.92);
  const auto c = ur_of(0.84, 0.88);
  ChainStatsStore forward(1e-9);
  const std::vector<ChainId> f = {forward.intern(a), forward.intern(b),
                                  forward.intern(c)};
  ChainStatsStore backward(1e-9);
  const std::vector<ChainId> r = {backward.intern(c), backward.intern(b),
                                  backward.intern(a)};
  std::vector<ChainId> fs = f;
  std::sort(fs.begin(), fs.end());
  std::vector<ChainId> rs = r;
  std::sort(rs.begin(), rs.end());
  const auto sf = forward.set_stats(fs);
  const auto sr = backward.set_stats(rs);
  EXPECT_EQ(sf.p_plus, sr.p_plus);
  EXPECT_EQ(sf.ec, sr.ec);
  // And one store answers a repeat query from the entry (a hit).
  const auto before = forward.counters();
  (void)forward.set_stats(fs);
  const auto after = forward.counters();
  EXPECT_EQ(after.set_entries, before.set_entries);
  EXPECT_EQ(after.set_hits, before.set_hits + 1);
}

TEST(ChainStatsStore, SurvivalMatchesDirectTabulationAndResumes) {
  ChainStatsStore store(1e-9);
  const auto m = ur_of(0.9, 0.9);
  const ChainId id = store.intern(m);
  markov::ChainSurvival& surv = store.survival(id);

  // Direct reference: the exact advance sequence the estimator tables ran.
  markov::UrRow row;
  std::vector<double> ref = {1.0};
  for (int t = 1; t <= 600; ++t) {
    row.advance(m);
    ref.push_back(row.survival());
  }

  // Grow in two stages: the resume must continue the identical sequence.
  EXPECT_EQ(surv.grow_to(100), ref[100]);
  EXPECT_EQ(surv.published(), 101);
  EXPECT_EQ(surv.grow_to(600), ref[600]);
  for (long t : {0L, 1L, 57L, 100L, 101L, 599L}) {
    EXPECT_EQ(surv.at(t), ref[static_cast<std::size_t>(t)]) << "t=" << t;
  }
  const auto counters = store.counters();
  EXPECT_EQ(counters.survival_entries, 601u);
}

TEST(ChainStatsStore, SurvivalTerminalZeroCapsTheTable) {
  ChainStatsStore store(1e-9);
  // A very flaky chain underflows quickly.
  const ChainId id = store.intern(ur_of(0.10, 0.10));
  markov::ChainSurvival& surv = store.survival(id);
  EXPECT_EQ(surv.grow_to(5'000'000), 0.0);
  // The table stopped at its terminal zero instead of materializing 5M
  // entries...
  const long n = surv.published();
  EXPECT_LT(n, 100'000);
  EXPECT_EQ(surv.at(n - 1), 0.0);
  // ...and later, larger queries answer 0.0 without growing it.
  EXPECT_EQ(surv.grow_to(10'000'000), 0.0);
  EXPECT_EQ(surv.published(), n);
}

// The monotone prefixes behind the proactive comm-phase quiescence guard
// (DESIGN.md §8): recorded exactly as entries are appended.
TEST(ChainStatsStore, SurvivalRecordsItsMonotonePrefix) {
  ChainStatsStore store(1e-9);

  // A failing chain decays strictly: monotone through everything published,
  // unknown (false) past it.
  markov::ChainSurvival& decaying = store.survival(store.intern(ur_of(0.9, 0.9)));
  (void)decaying.grow_to(600);
  EXPECT_TRUE(decaying.monotone_through(600));
  EXPECT_FALSE(decaying.monotone_through(601));

  // A failure-free chain's u + r drifts upward by an ulp in float64: the
  // prefix ends just before the first rise and never recovers.
  const markov::TransitionMatrix ff({{{0.9, 0.1, 0.0}, {1.0 - 0.9081, 0.9081, 0.0},
                                      {0.5, 0.5, 0.0}}});
  markov::ChainSurvival& drifting = store.survival(store.intern(markov::ur_submatrix(ff)));
  (void)drifting.grow_to(64);
  long rise = -1;
  for (long t = 1; t <= 64 && rise < 0; ++t) {
    if (drifting.at(t) > drifting.at(t - 1)) rise = t;
  }
  ASSERT_GT(rise, 0);
  EXPECT_TRUE(drifting.monotone_through(rise - 1));
  EXPECT_FALSE(drifting.monotone_through(rise));
  (void)drifting.grow_to(4096);
  EXPECT_FALSE(drifting.monotone_through(rise));

  // Past a terminal exact zero every depth reads that zero.
  markov::ChainSurvival& flaky = store.survival(store.intern(ur_of(0.10, 0.10)));
  EXPECT_EQ(flaky.grow_to(5'000'000), 0.0);
  EXPECT_TRUE(flaky.monotone_through(10'000'000));
}

// Survival storage tracks the payload: allocated segments stay within
// 2 x 8 bytes per published entry plus one first segment, from a single
// entry up to a table ten segments deep.
TEST(ChainStatsStore, SurvivalBytesStayWithinTwiceThePublishedEntries) {
  constexpr long kFirst = markov::ChainSurvival::kFirstSegment;
  const auto m = ur_of(0.9999, 0.9999);  // decays slowly: no terminal zero
  for (long t : {1L, kFirst - 1, kFirst, kFirst + 1, 1'000L, 4'097L, 100'000L}) {
    ChainStatsStore store(1e-9);
    markov::ChainSurvival& surv = store.survival(store.intern(m));
    const std::size_t before = store.counters().bytes;
    (void)surv.grow_to(t);
    const long published = surv.published();
    ASSERT_EQ(published, t + 1);
    EXPECT_LE(store.counters().bytes - before,
              2 * sizeof(double) * static_cast<std::size_t>(published) +
                  sizeof(double) * static_cast<std::size_t>(kFirst))
        << "grown to t=" << t;
  }
}

// The TSan target for lock-free segment reads: one writer grows a table
// across ten segment boundaries while three readers bit-compare every
// entry they can see against a single-threaded private-store table.
TEST(ChainStatsStore, ConcurrentReadersSeeTheWrittenTableBitForBit) {
  constexpr long kDeep = 120'000;
  const auto m = ur_of(0.9999, 0.9999);
  ChainStatsStore reference(1e-9);
  markov::ChainSurvival& ref = reference.survival(reference.intern(m));
  (void)ref.grow_to(kDeep);
  ASSERT_EQ(ref.published(), kDeep + 1);

  ChainStatsStore store(1e-9);
  markov::ChainSurvival& surv = store.survival(store.intern(m));
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  std::vector<long> mismatches(3, 0);
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      long walk = r;  // each reader also sweeps the table at its own stride
      for (bool last = false; !last;) {
        last = done.load(std::memory_order_acquire);
        const long n = surv.published();
        if (n == 0) continue;
        walk = (walk + 97 * (r + 1)) % n;
        for (long t : {n - 1, n / 2, walk}) {
          mismatches[static_cast<std::size_t>(r)] +=
              std::bit_cast<std::uint64_t>(surv.at(t)) !=
              std::bit_cast<std::uint64_t>(ref.at(t));
        }
      }
    });
  }
  for (long t = 1; t <= kDeep; t += 37) (void)surv.grow_to(t);
  (void)surv.grow_to(kDeep);
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  for (long count : mismatches) EXPECT_EQ(count, 0);
  ASSERT_EQ(surv.published(), kDeep + 1);
  for (long t = 0; t <= kDeep; ++t) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(surv.at(t)),
              std::bit_cast<std::uint64_t>(ref.at(t)))
        << "t=" << t;
  }
}

TEST(CoupledStats, RecordsItsMonotoneExpectedTimePrefix) {
  markov::CoupledStats normal;
  normal.p_plus = 0.97;
  normal.ec = 1.5;
  EXPECT_FALSE(normal.expected_time_monotone_through(1));  // nothing memoized yet
  (void)normal.expected_time(300);
  EXPECT_TRUE(normal.expected_time_monotone_through(300));
  EXPECT_FALSE(normal.expected_time_monotone_through(301));

  // A decreasing table (negative gap) is caught at its first drop, exactly.
  markov::CoupledStats falling;
  falling.p_plus = 1.0;
  falling.ec = -0.25;
  (void)falling.expected_time(10);
  EXPECT_TRUE(falling.expected_time_monotone_through(1));
  EXPECT_FALSE(falling.expected_time_monotone_through(2));
  EXPECT_FALSE(falling.expected_time_monotone_through(10));
}

// --------------------------------------------------- estimator as a view ----

TEST(ChainStatsView, HomogeneousKSubsetsHitOneMultisetEntry) {
  const auto plat = homogeneous_platform(8);
  const auto app = small_app();
  auto store = std::make_shared<ChainStatsStore>(1e-9);
  sched::Estimator est(plat, app, 1e-9, store);

  EXPECT_EQ(store->counters().chains, 1u);  // 8 processors, one chain

  // Every k-subset of workers must resolve to the SAME multiset entry: walk
  // several distinct subsets per k and count store entries.
  std::vector<std::vector<int>> subsets = {
      {0},    {3},    {7},            // k = 1
      {0, 1}, {2, 5}, {6, 7}, {1, 4},  // k = 2
      {0, 1, 2}, {3, 5, 7}, {1, 2, 6},  // k = 3
      {0, 2, 4, 6}, {1, 3, 5, 7},       // k = 4
  };
  double per_k[5] = {0, 0, 0, 0, 0};
  for (const auto& s : subsets) {
    const auto& st = est.set_stats(s);
    double& expected = per_k[s.size()];
    if (expected == 0.0) {
      expected = st.p_plus;
    } else {
      EXPECT_EQ(st.p_plus, expected) << "subset size " << s.size();
    }
  }
  // One store entry per distinct k — not one per bitmask.
  EXPECT_EQ(store->counters().set_entries, 4u);
  // The view's front cache still keys by bitmask (one per distinct subset).
  EXPECT_EQ(est.cached_sets(), subsets.size());
}

TEST(ChainStatsView, SharedAndPrivateStoresAreBitIdentical) {
  // Paper platform: every processor a distinct chain. Clusters platform:
  // chains genuinely shared between processors.
  platform::ScenarioParams params;
  params.seed = 21;
  const auto paper = platform::make_scenario(params);
  const auto clusters =
      scen::platform_family("clusters")->make(params);

  for (const platform::Scenario* scenario : {&paper, &clusters}) {
    auto shared_store = std::make_shared<ChainStatsStore>(1e-6);
    sched::Estimator with_store(scenario->platform, scenario->app, 1e-6, shared_store);
    sched::Estimator private_store(scenario->platform, scenario->app, 1e-6);

    for (int q = 0; q < scenario->platform.size(); ++q) {
      EXPECT_EQ(with_store.proc_stats(q).p_plus, private_store.proc_stats(q).p_plus);
      EXPECT_EQ(with_store.proc_stats(q).ec, private_store.proc_stats(q).ec);
      for (long t : {1L, 9L, 64L, 511L}) {
        EXPECT_EQ(with_store.p_no_down(q, t), private_store.p_no_down(q, t))
            << "q=" << q << " t=" << t;
      }
    }
    // Worker sets in deliberately non-canonical orders.
    const std::vector<std::vector<int>> sets = {
        {0, 1}, {5, 2}, {7, 3, 1}, {9, 0, 4, 2}, {19, 11, 6}, {2, 12}};
    std::vector<sched::Estimator::CommNeed> needs;
    for (const auto& s : sets) {
      needs.clear();
      for (int q : s) needs.push_back({q, 12});
      const auto a = with_store.evaluate(needs, s, 20);
      const auto b = private_store.evaluate(needs, s, 20);
      EXPECT_EQ(a.p_success, b.p_success);
      EXPECT_EQ(a.e_time, b.e_time);
    }
  }
}

TEST(ChainStatsView, ClustersPlatformDedupsChains) {
  platform::ScenarioParams params;
  params.seed = 7;
  const auto scenario = scen::platform_family("clusters")->make(params);
  auto store = std::make_shared<ChainStatsStore>(1e-6);
  sched::Estimator est(scenario.platform, scenario.app, 1e-6, store);
  // The default clusters family draws far fewer chains than processors; the
  // store saw each once.
  const auto counters = store->counters();
  EXPECT_LT(counters.chains, static_cast<std::size_t>(scenario.platform.size()));
  EXPECT_EQ(counters.chains + counters.intern_hits,
            static_cast<std::size_t>(scenario.platform.size()));
  // Processors of one cluster share a survival table: growing through one
  // is visible through the other.
  int a = -1, b = -1;
  for (int q = 1; q < scenario.platform.size() && a < 0; ++q) {
    if (est.chain_id(q) == est.chain_id(0)) {
      a = 0;
      b = q;
    }
  }
  ASSERT_GE(a, 0) << "clusters scenario with no shared chain?";
  const double via_a = est.p_no_down(a, 333);
  EXPECT_EQ(est.p_no_down(b, 333), via_a);
}

TEST(ChainStatsView, SharedStoreEpsMismatchThrows) {
  const auto plat = homogeneous_platform(2);
  const auto app = small_app();
  auto store = std::make_shared<ChainStatsStore>(1e-6);
  EXPECT_THROW(sched::Estimator(plat, app, 1e-9, store), std::invalid_argument);
  EXPECT_NO_THROW(sched::Estimator(plat, app, 1e-6, store));
}

// -------------------------------------------------- epoch-safe eviction ----

TEST(Eviction, SetStatsReferenceSurvivesCapEviction) {
  platform::ScenarioParams params;
  params.seed = 5;
  const auto scenario = platform::make_scenario(params);
  sched::Estimator est(scenario.platform, scenario.app, 1e-6);
  est.set_eviction_caps_for_test(/*sets=*/4, /*builds=*/4);

  const std::vector<int> held_set = {0, 1, 2};
  const markov::CoupledStats& held = est.set_stats(held_set);
  const double p_plus = held.p_plus;
  const double ec = held.ec;

  // Push well past the cap: several evictions would fire under an eager
  // clear(); with epoch retirement the reference must keep reading its
  // (unchanged) values through the FIRST eviction after it was returned.
  std::size_t evictions = 0;
  std::size_t last_size = est.cached_sets();
  for (int q = 3; q < 9 && evictions == 0; ++q) {
    for (int r = q + 1; r < 12; ++r) {
      const std::vector<int> s = {q, r};
      (void)est.set_stats(s);
      if (est.cached_sets() < last_size) ++evictions;
      last_size = est.cached_sets();
      if (evictions > 0) break;
    }
  }
  ASSERT_GT(evictions, 0u) << "test cap never triggered an eviction";
  EXPECT_EQ(held.p_plus, p_plus);  // still alive, still the same doubles
  EXPECT_EQ(held.ec, ec);

  // A re-query after eviction recomputes the identical statistics.
  const markov::CoupledStats& again = est.set_stats(held_set);
  EXPECT_EQ(again.p_plus, p_plus);
  EXPECT_EQ(again.ec, ec);
}

TEST(Eviction, BuildMemoReferenceSurvivesCapEviction) {
  platform::ScenarioParams params;
  params.seed = 5;
  const auto scenario = platform::make_scenario(params);
  sched::Estimator est(scenario.platform, scenario.app, 1e-6);
  est.set_eviction_caps_for_test(/*sets=*/std::size_t{1} << 22, /*builds=*/3);

  auto& memo = est.build_memo();
  sched::MemoizedBuild& held = memo.insert(101);
  held.estimate = {0.25, 42.0};
  // Each build_memo() access past the cap evicts; insert through it the way
  // IncrementalBuilder does.
  for (std::uint64_t key = 200; key < 204; ++key) {
    est.build_memo().insert(key).estimate = {0.5, 1.0};
  }
  // `held` survived at least one eviction epoch.
  EXPECT_EQ(held.estimate.p_success, 0.25);
  EXPECT_EQ(held.estimate.e_time, 42.0);
  // The evicted key is gone from the index (a re-find misses).
  EXPECT_EQ(est.build_memo().find(101), nullptr);
}

// ------------------------------------------------- sweep bit-identity ----

/// Index-addressed collector of FULL simulation results (sweep bit-identity
/// must compare every counter).
class CollectSink final : public api::ResultSink {
 public:
  void begin(const api::ExperimentSpec& spec,
             const std::vector<platform::ScenarioParams>& scenarios,
             const std::vector<std::string>& heuristics) override {
    (void)spec;
    results_.assign(heuristics.size(),
                    std::vector<std::vector<sim::SimulationResult>>(scenarios.size()));
  }
  void consume(const api::ResultRow& row) override {
    auto& per_scenario = results_[row.heuristic][row.scenario];
    if (per_scenario.size() <= static_cast<std::size_t>(row.trial)) {
      per_scenario.resize(static_cast<std::size_t>(row.trial) + 1);
    }
    per_scenario[static_cast<std::size_t>(row.trial)] = *row.result;
  }
  [[nodiscard]] const std::vector<std::vector<std::vector<sim::SimulationResult>>>&
  results() const {
    return results_;
  }

 private:
  std::vector<std::vector<std::vector<sim::SimulationResult>>> results_;
};

void expect_identical_results(const sim::SimulationResult& a,
                              const sim::SimulationResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.iterations_completed, b.iterations_completed);
  EXPECT_EQ(a.total_restarts, b.total_restarts);
  EXPECT_EQ(a.total_reconfigurations, b.total_reconfigurations);
  EXPECT_EQ(a.idle_slots, b.idle_slots);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].start_slot, b.iterations[i].start_slot);
    EXPECT_EQ(a.iterations[i].end_slot, b.iterations[i].end_slot);
    EXPECT_EQ(a.iterations[i].comm_slots, b.iterations[i].comm_slots);
    EXPECT_EQ(a.iterations[i].compute_slots, b.iterations[i].compute_slots);
    EXPECT_EQ(a.iterations[i].stalled_slots, b.iterations[i].stalled_slots);
    EXPECT_EQ(a.iterations[i].suspended_slots, b.iterations[i].suspended_slots);
    EXPECT_EQ(a.iterations[i].restarts, b.iterations[i].restarts);
  }
}

/// The registered availability families plus a trace family (registered on
/// first use — trace families need a concrete timeline).
const std::vector<std::string>& sweep_families() {
  static const std::vector<std::string> names = [] {
    platform::ScenarioParams params;
    params.seed = 61;
    const auto scenario = platform::make_scenario(params);
    auto src = scen::availability_family("markov")->make_source(
        scenario.platform, 777, platform::InitialStates::Stationary);
    auto timeline =
        std::make_shared<platform::StateTimeline>(platform::record(*src, 400));
    scen::register_availability_family(scen::make_trace_family(
        "cs-trace", scen::TraceFamilyParams{.timeline = std::move(timeline)}));
    return std::vector<std::string>{"markov", "weibull", "daynight", "cs-trace"};
  }();
  return names;
}

/// All 25 registered heuristics (the paper's 17 plus the extensions).
std::vector<std::string> all_heuristics() {
  std::vector<std::string> names = sched::all_heuristic_names();
  for (const auto& n : sched::extension_heuristic_names()) names.push_back(n);
  return names;
}

/// The hand-wired reference run of one (scenario, heuristic, trial): a
/// caller-owned estimator (private store), the family's live source and
/// Session::run_unit's scheduler seeding, driven by a bare Engine.
sim::SimulationResult reference_run(const api::Options& options, const std::string& family,
                                    const platform::Scenario& scenario,
                                    const sched::Estimator& estimator,
                                    const std::string& heuristic, int trial) {
  auto source = scen::availability_family(family)->make_source(
      scenario.platform, expt::trial_seed(scenario, trial), options.init);
  auto scheduler = sched::make_scheduler(
      heuristic, estimator,
      util::derive_seed(scenario.params.seed, 2000 + static_cast<std::uint64_t>(trial)));
  sim::Engine engine(scenario.platform, scenario.app, *source, *scheduler,
                     options.engine());
  return engine.run();
}

TEST(SweepBitIdentity, SessionMatchesPrivateStoreReferenceAllHeuristicsAllFamilies) {
  // Every heuristic x availability family, one paired trial each: the
  // session's shared store and a private-store estimator wired by hand must
  // produce the identical simulation.
  platform::ScenarioParams params;
  params.seed = 33;
  params.wmin = 2;
  params.iterations = 3;

  api::Options options;
  options.slot_cap = 100'000;
  const platform::Scenario scenario = scen::platform_family("paper")->make(params);

  const auto heuristics = all_heuristics();
  for (const auto& family : sweep_families()) {
    scen::ScenarioSpace space;
    space.availability = family;
    api::Session session(options);
    const sched::Estimator reference(scenario.platform, scenario.app, options.eps);
    for (const auto& heuristic : heuristics) {
      SCOPED_TRACE(family + " / " + heuristic);
      expect_identical_results(
          session.run_trial(space, params, heuristic, 0),
          reference_run(options, family, scenario, reference, heuristic, 0));
    }
    EXPECT_GT(session.chain_store_counters().chains, 0u);
  }
}

TEST(SweepBitIdentity, ClustersPlatformSweepMatchesPrivateStoreReference) {
  // Heterogeneous platform family where chains genuinely repeat across
  // processors: a full (grid) sweep on two threads equals the hand-wired
  // private-store reference row for row.
  api::ExperimentSpec spec;
  spec.grid.ms = {5};
  spec.grid.ncoms = {5};
  spec.grid.wmins = {1, 2};
  spec.grid.scenarios_per_cell = 2;
  spec.grid.iterations = 3;
  spec.trials = 2;
  spec.heuristics = {"RANDOM", "IE", "Y-IE", "E-IAY", "IY"};
  spec.options.slot_cap = 100'000;
  spec.options.threads = 2;
  spec.scenario_space.platform = "clusters";

  CollectSink sink;
  {
    api::Session session(spec.options);
    session.run(spec, {&sink});
    const auto counters = session.chain_store_counters();
    EXPECT_GT(counters.chains, 0u);
    EXPECT_GT(counters.intern_hits, counters.chains);  // clusters: chains repeat
    EXPECT_GT(counters.set_hits, 0u);
  }

  const auto scenarios = spec.scenarios();
  ASSERT_EQ(sink.results().size(), spec.heuristics.size());
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    const platform::Scenario scenario =
        scen::platform_family("clusters")->make(scenarios[sc]);
    const sched::Estimator reference(scenario.platform, scenario.app, spec.options.eps);
    for (std::size_t h = 0; h < spec.heuristics.size(); ++h) {
      ASSERT_EQ(sink.results()[h][sc].size(), 2u);
      for (int t = 0; t < 2; ++t) {
        SCOPED_TRACE("h" + std::to_string(h) + " sc" + std::to_string(sc) + " t" +
                     std::to_string(t));
        expect_identical_results(
            sink.results()[h][sc][static_cast<std::size_t>(t)],
            reference_run(spec.options, spec.scenario_space.availability, scenario,
                          reference, spec.heuristics[h], t));
      }
    }
  }
}

// ------------------------------------------------------- observability ----

TEST(Observability, SessionCountersPopulateAndClearCachesResets) {
  api::ExperimentSpec spec;
  spec.grid.ms = {5};
  spec.grid.ncoms = {5};
  spec.grid.wmins = {1};
  spec.grid.scenarios_per_cell = 2;
  spec.grid.iterations = 3;
  spec.trials = 1;
  spec.heuristics = {"IE", "Y-IE"};
  spec.options.slot_cap = 50'000;
  spec.options.threads = 1;

  api::Session session(spec.options);
  EXPECT_EQ(session.chain_store_counters().chains, 0u);
  CollectSink sink;
  session.run(spec, {&sink});

  const auto counters = session.chain_store_counters();
  // Two paper scenarios x 20 distinct chains each.
  EXPECT_EQ(counters.chains, 40u);
  EXPECT_GT(counters.set_entries, 0u);
  EXPECT_GT(counters.set_misses, 0u);
  EXPECT_GT(counters.survival_entries, 0u);
  EXPECT_GT(counters.bytes, 0u);
  EXPECT_GT(session.cached_entries(), 0u);

  session.clear_caches();
  EXPECT_EQ(session.cached_entries(), 0u);
  const auto reset = session.chain_store_counters();
  EXPECT_EQ(reset.chains, 0u);
  EXPECT_EQ(reset.bytes, 0u);
}

TEST(Observability, SecondThreadRebuildsFromTheWarmStoreWithIdenticalRows) {
  // The serve daemon's resubmit shape: a new thread of a warm session builds
  // fresh estimators (the scenario cache is per thread) whose every chain
  // interns into a hit on the retained store. The first thread stays alive
  // throughout, so the second one cannot inherit its id — and its cache.
  api::Options options;
  options.slot_cap = 50'000;
  const std::vector<std::string> heuristics = {"IE", "P-IE", "Y-IE", "IY"};
  const auto availability = scen::availability_family("markov");
  const auto platform_family = scen::platform_family("paper");
  std::vector<platform::ScenarioParams> units(2);
  units[0].seed = 71;
  units[1].seed = 72;
  units[1].wmin = 3;

  api::Session session(options);
  auto run_all = [&] {
    std::vector<std::vector<sim::SimulationResult>> rows;
    for (const auto& params : units) {
      rows.push_back(session.run_unit(options, *availability, platform_family, params,
                                      heuristics, 0));
    }
    return rows;
  };
  const auto first = run_all();
  const auto after_first = session.chain_store_counters();
  std::vector<std::vector<sim::SimulationResult>> second;
  std::thread([&] { second = run_all(); }).join();
  const auto after_second = session.chain_store_counters();

  ASSERT_EQ(second.size(), first.size());
  for (std::size_t u = 0; u < first.size(); ++u) {
    ASSERT_EQ(second[u].size(), heuristics.size());
    for (std::size_t h = 0; h < heuristics.size(); ++h) {
      SCOPED_TRACE("unit " + std::to_string(u) + " " + heuristics[h]);
      expect_identical_results(second[u][h], first[u][h]);
    }
  }
  EXPECT_EQ(session.cached_entries(), 2 * units.size());  // one per thread
  EXPECT_GT(after_second.intern_hits, after_first.intern_hits);
  EXPECT_EQ(after_second.chains, after_first.chains);  // nothing new to intern
}

}  // namespace
}  // namespace tcgrid
