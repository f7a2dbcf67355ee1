// Tests of the 17 heuristics (§VI): registry, incremental builders' choices
// (speed vs reliability trade-offs), the RANDOM baseline, passivity, and
// proactive switching / stability / caching equivalence.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "platform/availability.hpp"
#include "platform/scenario.hpp"
#include "scen/registry.hpp"
#include "sched/heuristics.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"

namespace tcgrid::sched {
namespace {

using markov::State;

/// Owns everything a SchedulerView points into, for driving builders and
/// schedulers without an engine.
struct ViewFixture {
  platform::Platform plat;
  model::Application app;
  std::vector<State> states;
  std::vector<model::Holdings> holdings;
  std::vector<long> comm_rem;

  ViewFixture(platform::Platform p, model::Application a)
      : plat(std::move(p)),
        app(a),
        states(static_cast<std::size_t>(plat.size()), State::Up),
        holdings(static_cast<std::size_t>(plat.size())),
        comm_rem(static_cast<std::size_t>(plat.size()), 0) {}

  [[nodiscard]] sim::SchedulerView view(const model::Configuration* config = nullptr,
                                        long elapsed = 0, long w_total = 0,
                                        long w_done = 0) {
    sim::SchedulerView v;
    v.slot = elapsed;
    v.platform = &plat;
    v.app = &app;
    v.states = states;
    v.holdings = holdings;
    v.config = config;
    v.iteration_elapsed = elapsed;
    v.compute_total = w_total;
    v.compute_done = w_done;
    v.comm_remaining = comm_rem;
    return v;
  }
};

platform::Platform heterogeneous_platform() {
  // P0: fast & reliable; P1: slow & reliable; P2: fast & flaky; P3: slow & flaky.
  std::vector<platform::Processor> procs(4);
  procs[0].speed = 2;
  procs[1].speed = 10;
  procs[2].speed = 2;
  procs[3].speed = 10;
  for (auto& pr : procs) pr.max_tasks = 8;
  procs[0].availability = markov::TransitionMatrix::from_self_loops(0.99, 0.9, 0.9);
  procs[1].availability = markov::TransitionMatrix::from_self_loops(0.99, 0.9, 0.9);
  procs[2].availability = markov::TransitionMatrix::from_self_loops(0.70, 0.9, 0.9);
  procs[3].availability = markov::TransitionMatrix::from_self_loops(0.70, 0.9, 0.9);
  return platform::Platform(std::move(procs), 2);
}

model::Application small_app(int m, long t_prog = 4, long t_data = 1) {
  model::Application app;
  app.num_tasks = m;
  app.t_prog = t_prog;
  app.t_data = t_data;
  app.iterations = 10;
  return app;
}

// ------------------------------------------------------------ registry ----

TEST(Registry, SeventeenNames) {
  const auto& names = all_heuristic_names();
  EXPECT_EQ(names.size(), 17u);
  EXPECT_EQ(names.front(), "RANDOM");
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), 17u);
}

TEST(Registry, MakeSchedulerRoundTripsNames) {
  auto plat = heterogeneous_platform();
  auto app = small_app(3);
  Estimator est(plat, app, 1e-8);
  for (const auto& name : all_heuristic_names()) {
    auto s = make_scheduler(name, est, 1);
    EXPECT_EQ(s->name(), name);
    EXPECT_TRUE(is_heuristic_name(name));
  }
}

TEST(Registry, UnknownNameThrows) {
  auto plat = heterogeneous_platform();
  auto app = small_app(3);
  Estimator est(plat, app, 1e-8);
  EXPECT_THROW((void)make_scheduler("Z-IE", est), std::invalid_argument);
  EXPECT_THROW((void)make_scheduler("IEE", est), std::invalid_argument);
  EXPECT_THROW((void)make_scheduler("", est), std::invalid_argument);
  EXPECT_FALSE(is_heuristic_name("nope"));
}

TEST(Registry, TableIINamesAreValid) {
  EXPECT_EQ(tableii_heuristic_names().size(), 8u);
  for (const auto& n : tableii_heuristic_names()) EXPECT_TRUE(is_heuristic_name(n));
}

// -------------------------------------------------- incremental builder ----

TEST(IncrementalBuilder, MapsExactlyMTasks) {
  ViewFixture fx(heterogeneous_platform(), small_app(5));
  Estimator est(fx.plat, fx.app, 1e-8);
  for (Rule rule : {Rule::IP, Rule::IE, Rule::IY, Rule::IAY}) {
    IncrementalBuilder builder(rule, est);
    auto built = builder.build(fx.view());
    ASSERT_FALSE(built.config.empty()) << to_string(rule);
    EXPECT_EQ(built.config.total_tasks(), 5);
    EXPECT_GT(built.estimate.p_success, 0.0);
    EXPECT_GT(built.estimate.e_time, 0.0);
  }
}

TEST(IncrementalBuilder, IEPrefersFastReliableWorker) {
  ViewFixture fx(heterogeneous_platform(), small_app(1));
  Estimator est(fx.plat, fx.app, 1e-8);
  IncrementalBuilder ie(Rule::IE, est);
  auto built = ie.build(fx.view());
  ASSERT_EQ(built.config.size(), 1u);
  EXPECT_EQ(built.config.assignments()[0].proc, 0);  // fast & reliable
}

TEST(IncrementalBuilder, IPPrefersReliabilityOverSpeed) {
  // Make the reliable workers slow and the flaky ones fast; IP should still
  // enroll a reliable one, IE the fast flaky one (shorter expected time can
  // tolerate some risk — exact preference pinned by construction).
  std::vector<platform::Processor> procs(2);
  procs[0].speed = 20;  // slow, never fails
  procs[0].max_tasks = 4;
  procs[0].availability = markov::TransitionMatrix::from_self_loops(1.0, 0.9, 0.9);
  procs[1].speed = 1;  // fast, flaky
  procs[1].max_tasks = 4;
  procs[1].availability = markov::TransitionMatrix::from_self_loops(0.7, 0.9, 0.9);
  platform::Platform plat(std::move(procs), 2);
  ViewFixture fx(std::move(plat), small_app(1, /*t_prog=*/0, /*t_data=*/0));
  Estimator est(fx.plat, fx.app, 1e-8);

  auto ip = IncrementalBuilder(Rule::IP, est).build(fx.view());
  ASSERT_EQ(ip.config.size(), 1u);
  EXPECT_EQ(ip.config.assignments()[0].proc, 0);
  EXPECT_DOUBLE_EQ(ip.estimate.p_success, 1.0);

  auto ie = IncrementalBuilder(Rule::IE, est).build(fx.view());
  ASSERT_EQ(ie.config.size(), 1u);
  EXPECT_EQ(ie.config.assignments()[0].proc, 1);
}

TEST(IncrementalBuilder, RespectsMuBound) {
  std::vector<platform::Processor> procs(2);
  for (auto& pr : procs) {
    pr.speed = 1;
    pr.max_tasks = 2;
    pr.availability = markov::TransitionMatrix::from_self_loops(0.95, 0.9, 0.9);
  }
  platform::Platform plat(std::move(procs), 2);
  ViewFixture fx(std::move(plat), small_app(4));
  Estimator est(fx.plat, fx.app, 1e-8);
  auto built = IncrementalBuilder(Rule::IE, est).build(fx.view());
  ASSERT_FALSE(built.config.empty());
  for (const auto& a : built.config.assignments()) EXPECT_LE(a.tasks, 2);
  EXPECT_EQ(built.config.total_tasks(), 4);
}

TEST(IncrementalBuilder, EmptyWhenInsufficientCapacity) {
  std::vector<platform::Processor> procs(2);
  for (auto& pr : procs) {
    pr.speed = 1;
    pr.max_tasks = 1;
    pr.availability = markov::TransitionMatrix::from_self_loops(0.95, 0.9, 0.9);
  }
  platform::Platform plat(std::move(procs), 2);
  ViewFixture fx(std::move(plat), small_app(4));  // m = 4 > capacity 2
  Estimator est(fx.plat, fx.app, 1e-8);
  EXPECT_TRUE(IncrementalBuilder(Rule::IE, est).build(fx.view()).config.empty());
}

TEST(IncrementalBuilder, SkipsNonUpWorkers) {
  ViewFixture fx(heterogeneous_platform(), small_app(2));
  fx.states[0] = State::Down;
  fx.states[1] = State::Reclaimed;
  Estimator est(fx.plat, fx.app, 1e-8);
  auto built = IncrementalBuilder(Rule::IE, est).build(fx.view());
  ASSERT_FALSE(built.config.empty());
  for (const auto& a : built.config.assignments()) {
    EXPECT_TRUE(a.proc == 2 || a.proc == 3);
  }
}

TEST(IncrementalBuilder, CreditsHeldProgramAndData) {
  // P1 is slightly slower but already holds the program: with a large
  // program cost IE should prefer it over an otherwise identical worker.
  std::vector<platform::Processor> procs(2);
  for (auto& pr : procs) {
    pr.max_tasks = 4;
    pr.availability = markov::TransitionMatrix::from_self_loops(0.97, 0.9, 0.9);
  }
  procs[0].speed = 3;
  procs[1].speed = 4;
  platform::Platform plat(std::move(procs), 2);
  ViewFixture fx(std::move(plat), small_app(1, /*t_prog=*/50, /*t_data=*/1));
  fx.holdings[1].has_program = true;
  Estimator est(fx.plat, fx.app, 1e-8);
  auto built = IncrementalBuilder(Rule::IE, est).build(fx.view());
  ASSERT_EQ(built.config.size(), 1u);
  EXPECT_EQ(built.config.assignments()[0].proc, 1);
}

TEST(IncrementalBuilder, EstimateFreshMatchesBuildEstimate) {
  ViewFixture fx(heterogeneous_platform(), small_app(3));
  Estimator est(fx.plat, fx.app, 1e-8);
  IncrementalBuilder builder(Rule::IAY, est);
  auto built = builder.build(fx.view());
  ASSERT_FALSE(built.config.empty());
  auto re = builder.estimate_fresh(fx.view(), built.config);
  EXPECT_NEAR(re.p_success, built.estimate.p_success, 1e-12);
  EXPECT_NEAR(re.e_time, built.estimate.e_time, 1e-12);
}

TEST(IncrementalBuilder, SignatureSeparatesLargeDataCounts) {
  // m is unbounded spec input and mu_q = m, so a worker can hold more than
  // 65535 data messages; views differing only there must not share a memo
  // entry.
  std::vector<platform::Processor> procs(1);
  procs[0].speed = 1;
  procs[0].max_tasks = 70000;
  procs[0].availability = markov::TransitionMatrix::from_self_loops(1.0, 0.9, 0.9);
  platform::Platform plat(std::move(procs), 1);
  ViewFixture fx(std::move(plat), small_app(70000, /*t_prog=*/0, /*t_data=*/1));
  fx.holdings[0].data_messages = 66000;
  const auto sig_a = view_signature(fx.view());
  Estimator est(fx.plat, fx.app, 1e-6);
  IncrementalBuilder memoized(Rule::IE, est);
  const auto a = memoized.build(fx.view());

  fx.holdings[0].data_messages = 67000;
  EXPECT_NE(view_signature(fx.view()), sig_a);
  const auto b = memoized.build(fx.view());
  Estimator oracle_est(fx.plat, fx.app, 1e-6);
  const auto want = IncrementalBuilder(Rule::IE, oracle_est).build(fx.view());
  EXPECT_TRUE(b.config == want.config);
  EXPECT_EQ(b.estimate.e_time, want.estimate.e_time);
  EXPECT_NE(b.estimate.e_time, a.estimate.e_time);
}

TEST(IncrementalBuilder, SignatureIgnoresNonUpHoldings) {
  ViewFixture fx(heterogeneous_platform(), small_app(3));
  fx.states[2] = State::Down;
  const auto sig = view_signature(fx.view());
  fx.holdings[2].has_program = true;
  fx.holdings[2].data_messages = 2;
  EXPECT_EQ(view_signature(fx.view()), sig);
  fx.states[2] = State::Up;
  EXPECT_NE(view_signature(fx.view()), sig);
}

// Delta rebuilds: a long-lived builder, fed a random sequence of views,
// must return exactly what a never-used builder on a separate Estimator
// returns for each view — same configuration, bitwise-equal estimate.
enum class DeltaPlatform { Paper, Clusters, Capped };

struct DeltaCase {
  Rule rule;
  DeltaPlatform platform;
  bool memo;
};

platform::Scenario delta_scenario(DeltaPlatform kind) {
  platform::ScenarioParams params;
  params.m = 6;
  params.ncom = 3;
  params.wmin = 2;
  params.seed = 41;
  switch (kind) {
    case DeltaPlatform::Paper: return platform::make_scenario(params);
    case DeltaPlatform::Clusters: return scen::platform_family("clusters")->make(params);
    case DeltaPlatform::Capped: break;
  }
  // Clusters with mu_q in {1, 2}: capacity runs out mid-build, so
  // infeasible views end the greedy at varying rounds.
  auto scenario = scen::platform_family("clusters")->make(params);
  std::vector<platform::Processor> procs;
  for (int q = 0; q < scenario.platform.size(); ++q) {
    auto pr = scenario.platform.proc(q);
    pr.max_tasks = 1 + q % 2;
    procs.push_back(pr);
  }
  scenario.platform = platform::Platform(std::move(procs), params.ncom);
  return scenario;
}

class DeltaRebuild : public ::testing::TestWithParam<DeltaCase> {};

TEST_P(DeltaRebuild, MatchesNeverUsedBuilder) {
  const DeltaCase c = GetParam();
  const auto scenario = delta_scenario(c.platform);
  ViewFixture fx(scenario.platform, scenario.app);
  const int p = fx.plat.size();
  const int m = fx.app.num_tasks;
  Estimator est(fx.plat, fx.app, 1e-6);
  Estimator oracle_est(fx.plat, fx.app, 1e-6);
  IncrementalBuilder builder(c.rule, est);
  builder.set_memo(c.memo);

  std::mt19937_64 rng(1234 + static_cast<int>(c.rule) * 10 +
                      static_cast<int>(c.platform));
  const auto pick = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<std::uint64_t>(n));
  };
  const auto set_state = [&fx](int q, State s) {
    const auto qi = static_cast<std::size_t>(q);
    fx.states[qi] = s;
    if (s == State::Down) fx.holdings[qi].crash();
  };
  const State kStates[] = {State::Up, State::Reclaimed, State::Down};

  int infeasible = 0;
  for (int step = 0; step < 600; ++step) {
    switch (pick(8)) {
      case 0:
      case 1:
      case 2: {  // one worker joins or leaves the UP set
        const int q = pick(p);
        set_state(q, fx.states[static_cast<std::size_t>(q)] == State::Up
                         ? kStates[1 + pick(2)]
                         : State::Up);
        break;
      }
      case 3:  // data-message progress, or an iteration boundary
        for (int j = 0; j < 1 + pick(2); ++j) {
          auto& h = fx.holdings[static_cast<std::size_t>(pick(p))];
          h.data_messages = pick(2) ? std::min(m, h.data_messages + 1) : 0;
        }
        break;
      case 4:
        fx.holdings[static_cast<std::size_t>(pick(p))].has_program ^= true;
        break;
      case 5:  // crash of a few workers
        for (int j = 0; j < 1 + pick(3); ++j) set_state(pick(p), State::Down);
        break;
      case 6:  // near-empty UP set: infeasible for most m
        for (int q = 0; q < p; ++q) set_state(q, pick(12) ? State::Reclaimed : State::Up);
        break;
      default:  // recovery: most workers back UP, holdings reshuffled
        for (int q = 0; q < p; ++q) {
          set_state(q, kStates[pick(4) == 0 ? 1 + pick(2) : 0]);
          fx.holdings[static_cast<std::size_t>(q)].data_messages = pick(m + 1);
        }
        break;
    }
    const auto view = fx.view(nullptr, /*elapsed=*/step % 37);
    const auto got = builder.build(view);
    IncrementalBuilder oracle(c.rule, oracle_est);
    oracle.set_memo(false);
    const auto want = oracle.build(view);
    ASSERT_TRUE(got.config == want.config) << "step " << step;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.estimate.p_success),
              std::bit_cast<std::uint64_t>(want.estimate.p_success))
        << "step " << step;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got.estimate.e_time),
              std::bit_cast<std::uint64_t>(want.estimate.e_time))
        << "step " << step;
    if (want.config.empty()) ++infeasible;
  }
  EXPECT_GT(infeasible, 0);
  EXPECT_LT(infeasible, 600);
}

std::vector<DeltaCase> delta_cases() {
  std::vector<DeltaCase> cases;
  for (Rule rule : {Rule::IP, Rule::IE, Rule::IAY, Rule::IY}) {
    for (DeltaPlatform plat :
         {DeltaPlatform::Paper, DeltaPlatform::Clusters, DeltaPlatform::Capped}) {
      for (bool memo : {false, true}) cases.push_back({rule, plat, memo});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Rules, DeltaRebuild, ::testing::ValuesIn(delta_cases()), [](const auto& info) {
      const DeltaCase& c = info.param;
      const char* plat = c.platform == DeltaPlatform::Paper      ? "paper"
                         : c.platform == DeltaPlatform::Clusters ? "clusters"
                                                                 : "capped";
      return std::string(to_string(c.rule)) + "_" + plat + (c.memo ? "_memo" : "");
    });

// -------------------------------------------------------------- RANDOM ----

TEST(Random, DeterministicPerSeed) {
  ViewFixture fx(heterogeneous_platform(), small_app(4));
  RandomScheduler a(9), b(9);
  auto ca = a.decide(fx.view());
  auto cb = b.decide(fx.view());
  ASSERT_TRUE(ca.has_value());
  ASSERT_TRUE(cb.has_value());
  EXPECT_TRUE(*ca == *cb);
}

TEST(Random, UsesOnlyUpWorkersAndAllTasks) {
  ViewFixture fx(heterogeneous_platform(), small_app(4));
  fx.states[2] = State::Down;
  RandomScheduler s(10);
  auto c = s.decide(fx.view());
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->total_tasks(), 4);
  EXPECT_FALSE(c->enrolled(2));
}

TEST(Random, PassiveWhenConfigExists) {
  ViewFixture fx(heterogeneous_platform(), small_app(4));
  model::Configuration current({{0, 4}});
  RandomScheduler s(11);
  EXPECT_FALSE(s.decide(fx.view(&current)).has_value());
}

TEST(Random, VariesAcrossSeeds) {
  ViewFixture fx(heterogeneous_platform(), small_app(4));
  std::set<int> first_procs;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    RandomScheduler s(seed);
    auto c = s.decide(fx.view());
    ASSERT_TRUE(c.has_value());
    first_procs.insert(c->assignments()[0].proc);
  }
  EXPECT_GT(first_procs.size(), 1u);
}

TEST(Random, NulloptWhenNoCapacity) {
  ViewFixture fx(heterogeneous_platform(), small_app(4));
  for (auto& s : fx.states) s = State::Down;
  RandomScheduler s(12);
  EXPECT_FALSE(s.decide(fx.view()).has_value());
}

// ------------------------------------------------------------- passive ----

TEST(Passive, OnlyProposesWithoutConfig) {
  ViewFixture fx(heterogeneous_platform(), small_app(3));
  Estimator est(fx.plat, fx.app, 1e-8);
  PassiveScheduler s(Rule::IE, est);
  auto first = s.decide(fx.view());
  ASSERT_TRUE(first.has_value());
  model::Configuration current = *first;
  EXPECT_FALSE(s.decide(fx.view(&current, 5, 10, 2)).has_value());
}

// ----------------------------------------------------------- proactive ----

TEST(Proactive, StableOnStaticPlatform) {
  // Nothing changes -> after the initial install there is never a strictly
  // better candidate, so no reconfigurations (the §VI-B stability property).
  auto plat = heterogeneous_platform();
  auto app = small_app(3);
  Estimator est(plat, app, 1e-8);
  ProactiveScheduler sched(Criterion::Y, Rule::IE, est);
  platform::FixedAvailability avail(
      {std::vector<State>(static_cast<std::size_t>(plat.size()), State::Up)});
  sim::Engine engine(plat, app, avail, sched);
  auto r = engine.run();
  EXPECT_TRUE(r.success);
  EXPECT_EQ(r.total_reconfigurations, 0);
}

TEST(Proactive, SwitchesWhenBetterWorkersAppear) {
  // Only the two flaky-slow workers are UP at first; the good workers come
  // up at slot 3. A proactive Y-IE should abandon the initial configuration.
  std::vector<platform::Processor> procs(4);
  procs[0].speed = 1;
  procs[1].speed = 1;
  procs[2].speed = 30;
  procs[3].speed = 30;
  for (auto& pr : procs) pr.max_tasks = 8;
  procs[0].availability = markov::TransitionMatrix::from_self_loops(0.99, 0.99, 0.9);
  procs[1].availability = markov::TransitionMatrix::from_self_loops(0.99, 0.99, 0.9);
  procs[2].availability = markov::TransitionMatrix::from_self_loops(0.80, 0.9, 0.9);
  procs[3].availability = markov::TransitionMatrix::from_self_loops(0.80, 0.9, 0.9);
  platform::Platform plat(std::move(procs), 4);

  auto app = small_app(2, /*t_prog=*/2, /*t_data=*/1);
  app.iterations = 1;

  std::vector<std::vector<State>> script(
      3, {State::Reclaimed, State::Reclaimed, State::Up, State::Up});
  // After slot 3 everything is UP (beyond-horizon default).
  Estimator est(plat, app, 1e-8);
  ProactiveScheduler proactive(Criterion::Y, Rule::IE, est);
  platform::FixedAvailability avail1(script);
  sim::Engine e1(plat, app, avail1, proactive, {});
  auto r1 = e1.run();
  EXPECT_TRUE(r1.success);
  EXPECT_GE(r1.total_reconfigurations, 1);

  PassiveScheduler passive(Rule::IE, est);
  platform::FixedAvailability avail2(script);
  sim::Engine e2(plat, app, avail2, passive, {});
  auto r2 = e2.run();
  EXPECT_TRUE(r2.success);
  EXPECT_EQ(r2.total_reconfigurations, 0);
  // The proactive run moved to the fast workers and finished sooner.
  EXPECT_LT(r1.makespan, r2.makespan);
}

void expect_same_result(const sim::SimulationResult& a, const sim::SimulationResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.iterations_completed, b.iterations_completed);
  EXPECT_EQ(a.total_restarts, b.total_restarts);
  EXPECT_EQ(a.total_reconfigurations, b.total_reconfigurations);
  EXPECT_EQ(a.idle_slots, b.idle_slots);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    const auto& x = a.iterations[i];
    const auto& y = b.iterations[i];
    EXPECT_EQ(x.start_slot, y.start_slot) << "iteration " << i;
    EXPECT_EQ(x.end_slot, y.end_slot) << "iteration " << i;
    EXPECT_EQ(x.comm_slots, y.comm_slots) << "iteration " << i;
    EXPECT_EQ(x.stalled_slots, y.stalled_slots) << "iteration " << i;
    EXPECT_EQ(x.compute_slots, y.compute_slots) << "iteration " << i;
    EXPECT_EQ(x.suspended_slots, y.suspended_slots) << "iteration " << i;
    EXPECT_EQ(x.restarts, y.restarts) << "iteration " << i;
    EXPECT_EQ(x.reconfigurations, y.reconfigurations) << "iteration " << i;
  }
}

TEST(Proactive, CachingDoesNotChangeSchedules) {
  platform::ScenarioParams params;
  params.m = 5;
  params.ncom = 5;
  params.wmin = 2;
  params.seed = 17;
  auto scenario = platform::make_scenario(params);
  Estimator est(scenario.platform, scenario.app, 1e-6);

  for (auto [crit, rule] : {std::pair{Criterion::P, Rule::IE},
                            std::pair{Criterion::E, Rule::IAY},
                            std::pair{Criterion::Y, Rule::IP}}) {
    sim::SimulationResult results[2];
    for (int pass = 0; pass < 2; ++pass) {
      ProactiveScheduler sched(crit, rule, est);
      sched.set_caching(pass == 0);
      platform::MarkovAvailability avail(scenario.platform, 555);
      sim::EngineOptions opts;
      opts.slot_cap = 100000;
      sim::Engine engine(scenario.platform, scenario.app, avail, sched, opts);
      results[pass] = engine.run();
    }
    SCOPED_TRACE(std::string(to_string(crit)) + "-" + std::string(to_string(rule)));
    expect_same_result(results[0], results[1]);
  }
}

// ------------------------------------------- comm-phase quiescence ----
// A proactive "no switch" answer covers mid-message transfer progress
// (DESIGN.md §8) because the installed configuration's criterion score can
// only rise as its remaining needs fall — provided the estimator tables it
// reads are monotone over the range used, which the guard checks exactly.

/// A failure-free chain (DOWN unreachable) whose float64 survival table
/// u + r is not monotone: it rises by an ulp within the first few depths.
markov::TransitionMatrix drifting_chain() {
  return markov::TransitionMatrix(
      {{{0.9, 0.1, 0.0}, {1.0 - 0.9081, 0.9081, 0.0}, {0.5, 0.5, 0.0}}});
}

/// First depth t at which processor q's survival table rises, or -1.
long first_survival_rise(const Estimator& est, int q) {
  for (long t = 1; t <= 64; ++t) {
    if (est.p_no_down(q, t) > est.p_no_down(q, t - 1)) return t;
  }
  return -1;
}

TEST(CommQuiescence, CommProgressNeverLowersTheCurrentScore) {
  std::mt19937_64 rng(2024);
  long guarded = 0;
  long refused = 0;
  for (std::uint64_t s = 0; s < 30; ++s) {
    platform::ScenarioParams params;
    params.m = 1 + static_cast<int>(rng() % 8);
    params.ncom = 1 + static_cast<int>(rng() % 3);
    params.wmin = 1 + static_cast<long>(rng() % 3);
    params.p = 8;
    params.seed = s;
    auto scenario = platform::make_scenario(params);
    if (s % 3 == 2) {
      // Mix in failure-free chains whose survival tables drift upward.
      std::vector<platform::Processor> procs;
      for (int q = 0; q < scenario.platform.size(); ++q) {
        procs.push_back(scenario.platform.proc(q));
        if (q % 2 == 0) procs.back().availability = drifting_chain();
      }
      scenario.platform = platform::Platform(std::move(procs), params.ncom);
    }
    const auto& app = scenario.app;
    const Estimator est(scenario.platform, app, 1e-6);
    const int p = scenario.platform.size();

    for (int rep = 0; rep < 25; ++rep) {
      // A random enrolled set, each worker's need somewhere inside a fresh
      // transfer of its program and up to m data messages.
      std::vector<int> set;
      std::vector<Estimator::CommNeed> needs;
      for (int q = 0; q < p; ++q) {
        if (rng() % 2 == 0 && static_cast<int>(set.size()) < app.num_tasks) {
          set.push_back(q);
          const auto full =
              static_cast<std::uint64_t>(app.t_prog + app.num_tasks * app.t_data);
          needs.push_back({q, static_cast<long>(rng() % (full + 1))});
        }
      }
      if (set.empty()) continue;
      const long w = 1 + static_cast<long>(rng() % 60);
      const long elapsed = static_cast<long>(rng() % 100);

      const IterationEstimate first = est.evaluate(needs, set, w);
      const bool monotone = est.comm_progress_monotone(needs, set);
      ++(monotone ? guarded : refused);
      double prev[3];
      const Criterion crits[3] = {Criterion::P, Criterion::E, Criterion::Y};
      for (int c = 0; c < 3; ++c) prev[c] = criterion_score(crits[c], first, elapsed);

      // Serve the first ncom unfinished workers in enrollment order, some
      // slots stalled (a served worker RECLAIMED), until every need is met.
      for (;;) {
        int served = 0;
        bool pending = false;
        for (auto& n : needs) {
          if (n.slots == 0) continue;
          pending = true;
          if (served < scenario.platform.ncom() && rng() % 4 != 0) {
            --n.slots;
            ++served;
          }
        }
        if (!pending) break;
        const IterationEstimate now = est.evaluate(needs, set, w);
        if (!monotone) continue;
        for (int c = 0; c < 3; ++c) {
          const double score = criterion_score(crits[c], now, elapsed);
          ASSERT_GE(score, prev[c]) << "scenario " << s << " rep " << rep << " criterion "
                                    << to_string(crits[c]);
          prev[c] = score;
        }
      }
    }
  }
  // Both sides of the guard were exercised: the paper's chains pass it,
  // and the drifting failure-free chains are refused.
  EXPECT_GT(guarded, 100);
  EXPECT_GT(refused, 0);
}

/// Forwards to a proactive scheduler and checks every comm-phase "no
/// switch" report whose survival depth reaches the first drifting entry.
class CommReportProbe final : public sim::Scheduler {
 public:
  CommReportProbe(sim::Scheduler& inner, const Estimator& est, long rise)
      : inner_(inner), est_(est), rise_(rise) {}

  std::optional<model::Configuration> decide(const sim::SchedulerView& view) override {
    auto out = inner_.decide(view);
    if (!view.has_config() || (out && *out != *view.config)) return out;
    needs_.clear();
    int up_capacity = 0;
    for (int q = 0; q < view.platform->size(); ++q) {
      if (view.states[static_cast<std::size_t>(q)] == State::Up) {
        up_capacity += view.platform->proc(q).max_tasks;
      }
    }
    for (const auto& a : view.config->assignments()) {
      needs_.push_back({a.proc, view.comm_remaining[static_cast<std::size_t>(a.proc)]});
    }
    const double e_comm = est_.expected_comm_time(needs_);
    // An infeasible candidate is stable whatever the comm progress does.
    if (e_comm <= 0.0 || up_capacity < view.app->num_tasks) return out;
    if (static_cast<long>(std::ceil(e_comm)) < rise_) return out;
    ++deep_reports_;
    if (inner_.quiescence().kind != sim::Quiescence::Kind::EverySlot) ++deep_quiet_;
    return out;
  }
  [[nodiscard]] const sim::Quiescence& quiescence() const override {
    return inner_.quiescence();
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

  long deep_reports_ = 0;  ///< comm-phase no-switch consults past the rise
  long deep_quiet_ = 0;    ///< ... of which did not report EverySlot

 private:
  sim::Scheduler& inner_;
  const Estimator& est_;
  long rise_;
  std::vector<Estimator::CommNeed> needs_;
};

TEST(CommQuiescence, NonMonotoneSurvivalReportsEverySlotInCommPhase) {
  std::vector<platform::Processor> procs(4);
  for (int q = 0; q < 4; ++q) {
    procs[static_cast<std::size_t>(q)].speed = 1 + q;
    procs[static_cast<std::size_t>(q)].max_tasks = 2;
    procs[static_cast<std::size_t>(q)].availability = drifting_chain();
  }
  const platform::Platform plat(std::move(procs), 1);
  model::Application app = small_app(4, /*t_prog=*/6, /*t_data=*/3);
  app.iterations = 3;
  const Estimator est(plat, app, 1e-6);
  const long rise = first_survival_rise(est, 0);
  ASSERT_GT(rise, 0) << "the chain's survival table must drift upward";

  for (auto crit : {Criterion::P, Criterion::E, Criterion::Y}) {
    for (auto rule : {Rule::IP, Rule::IE, Rule::IAY}) {
      SCOPED_TRACE(std::string(to_string(crit)) + "-" + std::string(to_string(rule)));
      sim::SimulationResult results[2];
      for (bool ff : {false, true}) {
        ProactiveScheduler inner(crit, rule, est);
        CommReportProbe probe(inner, est, rise);
        platform::MarkovAvailability avail(plat, 31);
        sim::EngineOptions opts;
        opts.slot_cap = 100'000;
        opts.fast_forward = ff;
        sim::Engine engine(plat, app, avail, probe, opts);
        results[ff ? 1 : 0] = engine.run();
        EXPECT_GT(probe.deep_reports_, 0);
        EXPECT_EQ(probe.deep_quiet_, 0);
      }
      expect_same_result(results[0], results[1]);
    }
  }
}

// All 17 heuristics drive a full scenario without violating engine
// invariants, deterministically.
class AllHeuristics : public ::testing::TestWithParam<std::string> {};

TEST_P(AllHeuristics, RunsCleanAndDeterministic) {
  platform::ScenarioParams params;
  params.m = 5;
  params.ncom = 5;
  params.wmin = 1;
  params.seed = 23;
  params.iterations = 3;
  auto scenario = platform::make_scenario(params);
  Estimator est(scenario.platform, scenario.app, 1e-6);

  long makespans[2];
  for (int pass = 0; pass < 2; ++pass) {
    auto sched = make_scheduler(GetParam(), est, 77);
    platform::MarkovAvailability avail(scenario.platform, 999);
    sim::EngineOptions opts;
    opts.slot_cap = 200000;
    sim::Engine engine(scenario.platform, scenario.app, avail, *sched, opts);
    auto r = engine.run();
    makespans[pass] = r.makespan;
    if (r.success) {
      EXPECT_EQ(r.iterations_completed, 3);
      EXPECT_EQ(r.iterations.size(), 3u);
      for (const auto& it : r.iterations) {
        EXPECT_GT(it.compute_slots, 0);
        EXPECT_GE(it.end_slot, it.start_slot);
      }
    }
  }
  EXPECT_EQ(makespans[0], makespans[1]);
}

INSTANTIATE_TEST_SUITE_P(Registry, AllHeuristics,
                         ::testing::ValuesIn(all_heuristic_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (auto& c : n) {
                             if (c == '-') c = '_';
                           }
                           return n;
                         });

}  // namespace
}  // namespace tcgrid::sched
