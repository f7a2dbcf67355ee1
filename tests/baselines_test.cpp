// Tests of the extension heuristics: literature baselines (FASTEST,
// MOSTAVAIL, UPTIME) and the model-free adaptive wrappers (ADAPT-*).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "platform/availability.hpp"
#include "platform/scenario.hpp"
#include "sched/baselines.hpp"
#include "sched/registry.hpp"
#include "serve/protocol.hpp"
#include "sim/engine.hpp"

namespace tcgrid::sched {
namespace {

using markov::State;

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

  [[nodiscard]] sim::SchedulerView view(long slot = 0,
                                        const model::Configuration* config = nullptr) {
    sim::SchedulerView v;
    v.slot = slot;
    v.platform = &plat;
    v.app = &app;
    v.states = states;
    v.holdings = holdings;
    v.config = config;
    v.comm_remaining = comm_rem;
    return v;
  }
};

platform::Platform mixed_platform() {
  // P0 slow/very available, P1 fast/flaky, P2 medium, P3 fast/reliable.
  std::vector<platform::Processor> procs(4);
  for (auto& pr : procs) pr.max_tasks = 8;
  procs[0].speed = 9;
  procs[0].availability = markov::TransitionMatrix::from_self_loops(0.99, 0.5, 0.5);
  procs[1].speed = 1;
  procs[1].availability = markov::TransitionMatrix::from_self_loops(0.75, 0.9, 0.9);
  procs[2].speed = 5;
  procs[2].availability = markov::TransitionMatrix::from_self_loops(0.92, 0.9, 0.9);
  procs[3].speed = 2;
  procs[3].availability = markov::TransitionMatrix::from_self_loops(0.97, 0.9, 0.9);
  return platform::Platform(std::move(procs), 2);
}

model::Application tiny_app(int m) {
  model::Application app;
  app.num_tasks = m;
  app.t_prog = 2;
  app.t_data = 1;
  app.iterations = 5;
  return app;
}

// -------------------------------------------------------------- FASTEST ----

TEST(Fastest, MinimizesW) {
  ViewFixture fx(mixed_platform(), tiny_app(3));
  FastestScheduler s;
  auto cfg = s.decide(fx.view());
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->total_tasks(), 3);
  // Greedy min-W: tasks go to P1 (w=1): loads 1,2,3 give W 1,2,3 — always
  // cheaper than opening P3 (w=2)? Second task: P1 again (2*1=2) == P3 (1*2=2),
  // tie toward lower index -> P1. Third: P1 (3) vs P3 (2) -> P3.
  EXPECT_EQ(cfg->tasks_on(1), 2);
  EXPECT_EQ(cfg->tasks_on(3), 1);
  EXPECT_EQ(cfg->compute_slots(fx.plat.speeds()), 2);
}

TEST(Fastest, PassiveAndSkipsNonUp) {
  ViewFixture fx(mixed_platform(), tiny_app(2));
  fx.states[1] = State::Down;
  FastestScheduler s;
  auto cfg = s.decide(fx.view());
  ASSERT_TRUE(cfg.has_value());
  EXPECT_FALSE(cfg->enrolled(1));
  model::Configuration current = *cfg;
  EXPECT_FALSE(s.decide(fx.view(1, &current)).has_value());
}

// ------------------------------------------------------------ MOSTAVAIL ----

TEST(MostAvailable, RanksByStationaryAvailability) {
  ViewFixture fx(mixed_platform(), tiny_app(2));
  MostAvailableScheduler s;
  auto cfg = s.decide(fx.view());
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->total_tasks(), 2);
  // P0 has the highest long-run availability; P1 the lowest. With m = 2 the
  // two most available workers get one task each.
  EXPECT_TRUE(cfg->enrolled(0));
  EXPECT_FALSE(cfg->enrolled(1));
}

TEST(MostAvailable, RoundRobinRespectsMu) {
  auto plat = mixed_platform();
  std::vector<platform::Processor> procs(plat.procs().begin(), plat.procs().end());
  for (auto& pr : procs) pr.max_tasks = 2;
  ViewFixture fx(platform::Platform(std::move(procs), 2), tiny_app(6));
  MostAvailableScheduler s;
  auto cfg = s.decide(fx.view());
  ASSERT_TRUE(cfg.has_value());
  EXPECT_EQ(cfg->total_tasks(), 6);
  for (const auto& a : cfg->assignments()) EXPECT_LE(a.tasks, 2);
}

TEST(MostAvailable, NulloptWhenNothingUp) {
  ViewFixture fx(mixed_platform(), tiny_app(2));
  for (auto& s : fx.states) s = State::Down;
  MostAvailableScheduler s;
  EXPECT_FALSE(s.decide(fx.view()).has_value());
}

// --------------------------------------------------------------- UPTIME ----

TEST(Uptime, TracksStreaksFromObservations) {
  ViewFixture fx(mixed_platform(), tiny_app(2));
  UptimeScheduler s;
  model::Configuration dummy({{0, 2}});
  // Feed 3 slots: P2 goes down at slot 1, others stay up.
  (void)s.decide(fx.view(0, &dummy));
  fx.states[2] = State::Down;
  (void)s.decide(fx.view(1, &dummy));
  fx.states[2] = State::Up;
  (void)s.decide(fx.view(2, &dummy));
  EXPECT_EQ(s.streak(0), 3);
  EXPECT_EQ(s.streak(2), 1);  // reset by the DOWN slot
}

TEST(Uptime, PrefersLongestStreak) {
  ViewFixture fx(mixed_platform(), tiny_app(1));
  UptimeScheduler s;
  model::Configuration dummy({{0, 1}});
  // P3 down for the first 2 slots, then up; P0..P2 up throughout.
  fx.states[3] = State::Down;
  (void)s.decide(fx.view(0, &dummy));
  (void)s.decide(fx.view(1, &dummy));
  fx.states[3] = State::Up;
  auto cfg = s.decide(fx.view(2));
  ASSERT_TRUE(cfg.has_value());
  EXPECT_FALSE(cfg->enrolled(3));  // shortest streak loses
}

TEST(Uptime, ObservesEachSlotOnce) {
  ViewFixture fx(mixed_platform(), tiny_app(1));
  UptimeScheduler s;
  model::Configuration dummy({{0, 1}});
  (void)s.decide(fx.view(0, &dummy));
  (void)s.decide(fx.view(0, &dummy));  // same slot twice
  EXPECT_EQ(s.streak(0), 1);
}

// -------------------------------------------------------------- ADAPT-* ----

TEST(Adaptive, StartsWithStickyPriorAndLearns) {
  auto plat = mixed_platform();
  auto app = tiny_app(2);
  AdaptiveScheduler s(std::nullopt, Rule::IE, plat, app);
  // Prior: sticky diagonal.
  auto prior = s.fitted(0);
  EXPECT_GT(prior.prob(State::Up, State::Up), 0.8);

  // Feed a long all-UP history: the fitted UP self-loop should approach 1.
  ViewFixture fx(mixed_platform(), app);
  model::Configuration dummy({{0, 2}});
  for (long t = 0; t < 600; ++t) (void)s.decide(fx.view(t, &dummy));
  auto learned = s.fitted(0);
  EXPECT_GT(learned.prob(State::Up, State::Up), 0.97);
}

TEST(Adaptive, FittedConvergesToTruth) {
  // Feed ADAPT-IE a long stream of observed states sampled from the true
  // chains; the fitted matrices should approach the truth.
  platform::ScenarioParams params;
  params.m = 5;
  params.ncom = 5;
  params.wmin = 1;
  params.seed = 31;
  auto scenario = platform::make_scenario(params);

  AdaptiveScheduler sched(std::nullopt, Rule::IE, scenario.platform, scenario.app,
                          1e-6, /*refit_interval=*/64);
  platform::MarkovAvailability avail(scenario.platform, 77);

  ViewFixture fx(platform::make_scenario(params).platform, scenario.app);
  model::Configuration dummy({{0, 5}});
  for (long t = 0; t < 5000; ++t) {
    for (int q = 0; q < fx.plat.size(); ++q) {
      fx.states[static_cast<std::size_t>(q)] = avail.state(q);
    }
    // A non-empty current config keeps the passive inner heuristic quiet;
    // only the observation path is exercised.
    (void)sched.decide(fx.view(t, &dummy));
    avail.advance();
  }

  for (int q = 0; q < 8; ++q) {
    const double truth =
        scenario.platform.proc(q).availability.prob(State::Up, State::Up);
    const double fit = sched.fitted(q).prob(State::Up, State::Up);
    EXPECT_NEAR(fit, truth, 0.03) << "proc " << q;
  }
}

TEST(Adaptive, RegistryConstructionAndRun) {
  platform::ScenarioParams params;
  params.m = 5;
  params.ncom = 5;
  params.wmin = 1;
  params.seed = 41;
  params.iterations = 3;
  auto scenario = platform::make_scenario(params);
  sched::Estimator est(scenario.platform, scenario.app, 1e-6);

  for (const auto& name : extension_heuristic_names()) {
    EXPECT_TRUE(is_heuristic_name(name));
    auto sched = make_scheduler(name, est, 5);
    EXPECT_EQ(sched->name(), name);
    platform::MarkovAvailability avail(scenario.platform, 1234);
    sim::EngineOptions opts;
    opts.slot_cap = 200000;
    sim::Engine engine(scenario.platform, scenario.app, avail, *sched, opts);
    const auto r = engine.run();
    if (r.success) EXPECT_EQ(r.iterations_completed, 3);
  }
}

TEST(Adaptive, RejectsBadParameters) {
  auto plat = mixed_platform();
  auto app = tiny_app(2);
  EXPECT_THROW(AdaptiveScheduler(std::nullopt, Rule::IE, plat, app, 1e-6, 0),
               std::invalid_argument);
  EXPECT_THROW(AdaptiveScheduler(std::nullopt, Rule::IE, plat, app, 1e-6, 10, 0.0),
               std::invalid_argument);
}

TEST(Adaptive, UnknownAdaptNameThrows) {
  auto plat = mixed_platform();
  auto app = tiny_app(2);
  sched::Estimator est(plat, app, 1e-6);
  EXPECT_THROW((void)make_scheduler("ADAPT-XX", est), std::invalid_argument);
  EXPECT_THROW((void)make_scheduler("ADAPT-Q-IE", est), std::invalid_argument);
}

/// Collects every row as serve::row_line bytes (the daemon's serializer).
class RowLinesSink final : public api::ResultSink {
 public:
  void consume(const api::ResultRow& row) override {
    lines.push_back(serve::row_line(row.scenario, row.trial, row.heuristic, *row.name,
                                    *row.family, *row.params, *row.result));
  }
  std::vector<std::string> lines;
};

/// FNV-1a-64 over the sorted row lines, each terminated by '\n' (the
/// order-independent row digest perfbench records).
std::uint64_t sorted_rows_digest(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::string& line : lines) {
    for (const unsigned char c : line + '\n') {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

TEST(Adaptive, RowDigestOnTheReducedGridMatchesTheRecordedValue) {
  // perfbench's recorded digests cover nine paper heuristics only; this
  // pins the five ADAPT-* rows. A slice of the reduced m=5 grid at seed 42
  // (ncom {5, 10} x wmin {1, 4, 10}, 2 trials) runs through Session::run,
  // so every row goes through the replay path: one shared realization per
  // unit, frozen for the unit's last heuristic.
  api::ExperimentSpec spec = api::ExperimentSpec::reduced(5, 50'000);
  spec.options.seed = 42;
  spec.options.threads = 2;
  spec.grid.ncoms = {5, 10};
  spec.grid.wmins = {1, 4, 10};
  spec.grid.scenarios_per_cell = 1;
  spec.heuristics = {"ADAPT-IE", "ADAPT-IAY", "ADAPT-Y-IE", "ADAPT-P-IE", "ADAPT-E-IAY"};
  api::Session session(spec.options);
  RowLinesSink sink;
  (void)session.run(spec, {&sink});
  ASSERT_EQ(sink.lines.size(), 60U);
  EXPECT_EQ(sorted_rows_digest(sink.lines), 0xea04e37599ab3cf0ULL);
}

}  // namespace
}  // namespace tcgrid::sched
