// Exact work-counter gate. Rows are pinned by digests elsewhere; this pins
// the WORK behind them: per heuristic, the scheduler consults, per-slot
// engine steps, bulk-advanced slots and fresh builds (build-memo growth)
// of a small fixed sweep, plus the availability slots its realizations
// materialized (the summed per-unit frontier), wired exactly like
// perfbench's traced pass (session estimator, one shared realization per
// unit, scheduler seeding of Session::run_unit). The counts are machine-independent, so they are
// compared for equality. A change that moves them on purpose re-records
// the table and says why.
#include <gtest/gtest.h>

#include <vector>

#include "api/api.hpp"
#include "expt/runner.hpp"
#include "platform/realization.hpp"
#include "scen/registry.hpp"
#include "sched/registry.hpp"
#include "sim/engine.hpp"

namespace tcgrid {
namespace {

struct WorkCounts {
  long consults = 0;
  long per_slot_steps = 0;
  long bulk_slots = 0;
  long fresh_builds = 0;
};

/// A slice of perfbench's sweep at seed 42: 6 units x 9 heuristics.
api::ExperimentSpec gate_spec() {
  api::ExperimentSpec spec = api::ExperimentSpec::reduced(5, 50'000);
  spec.options.seed = 42;
  spec.options.threads = 1;
  spec.grid.ncoms = {5, 10};
  spec.grid.wmins = {1, 4, 10};
  spec.grid.scenarios_per_cell = 1;
  spec.trials = 1;
  spec.heuristics = {"IP", "IE", "IAY", "P-IE", "E-IE", "E-IAY", "Y-IE", "IY", "RANDOM"};
  return spec;
}

struct WorkPass {
  std::vector<WorkCounts> per_heuristic;
  long materialized_slots = 0;  ///< sum over units of Realization::frontier()
};

/// One single-threaded pass, unit-index order, per-heuristic sums.
WorkPass count_work(const api::ExperimentSpec& spec) {
  const api::Options& options = spec.options;
  const auto family = scen::availability_family(spec.scenario_space.availability);
  const std::vector<std::string>& heuristics = spec.resolved_heuristics();
  WorkPass out;
  out.per_heuristic.resize(heuristics.size());
  api::Session session(options);
  for (const platform::ScenarioParams& params : spec.scenarios()) {
    for (int trial = 0; trial < spec.trials; ++trial) {
      const sched::Estimator& estimator = session.estimator_for(params);
      const platform::Scenario& scenario = session.scenario_for(params);
      platform::Realization realization(
          family->make_source(scenario.platform, expt::trial_seed(scenario, trial),
                              options.init),
          options.realization_budget);
      for (std::size_t h = 0; h < heuristics.size(); ++h) {
        if (h + 1 == heuristics.size()) realization.freeze();
        const std::size_t memo_before = estimator.build_memo().size();
        auto scheduler = sched::make_scheduler(
            heuristics[h], estimator,
            util::derive_seed(scenario.params.seed, 2000 + static_cast<std::uint64_t>(trial)));
        sim::Engine engine(scenario.platform, scenario.app, realization, *scheduler,
                           options.engine());
        (void)engine.run();
        const sim::RunTelemetry& t = engine.telemetry();
        WorkCounts& c = out.per_heuristic[h];
        c.consults += engine.consults();
        c.per_slot_steps += t.per_slot_steps;
        c.bulk_slots += t.bulk_slots_comm + t.bulk_slots_configured + t.bulk_slots_idle;
        c.fresh_builds += static_cast<long>(estimator.build_memo().size() - memo_before);
      }
      out.materialized_slots += realization.frontier();
    }
  }
  return out;
}

TEST(WorkCounters, ExactPerHeuristicCountsRepeatAndMatchTheRecordedTable) {
  const api::ExperimentSpec spec = gate_spec();
  const std::vector<std::string>& heuristics = spec.resolved_heuristics();
  // {consults, per_slot_steps, bulk_slots, fresh_builds}, spec order.
  const std::vector<WorkCounts> recorded = {
      {541, 1063, 47474, 540},        // IP
      {968, 2055, 50942, 965},        // IE
      {534, 1044, 46124, 533},        // IAY
      {13451, 13451, 28024, 12154},   // P-IE
      {14888, 14888, 29053, 5058},    // E-IE
      {12982, 12982, 28462, 11882},   // E-IAY
      {13924, 13924, 28627, 560},     // Y-IE
      {546, 1072, 47676, 0},          // IY
      {25559, 39761, 163589, 0},      // RANDOM
  };
  // Realizations materialize as far as the runs' queries read, in 512-slot
  // chunks; the frozen last heuristic's live tail is not recorded.
  constexpr long kRecordedMaterializedSlots = 55808;
  ASSERT_EQ(recorded.size(), heuristics.size());
  for (int pass = 0; pass < 2; ++pass) {
    const WorkPass work = count_work(spec);
    const std::vector<WorkCounts>& got = work.per_heuristic;
    ASSERT_EQ(got.size(), heuristics.size());
    for (std::size_t h = 0; h < got.size(); ++h) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " heuristic " + heuristics[h]);
      EXPECT_EQ(got[h].consults, recorded[h].consults);
      EXPECT_EQ(got[h].per_slot_steps, recorded[h].per_slot_steps);
      EXPECT_EQ(got[h].bulk_slots, recorded[h].bulk_slots);
      EXPECT_EQ(got[h].fresh_builds, recorded[h].fresh_builds);
    }
    EXPECT_EQ(work.materialized_slots, kRecordedMaterializedSlots) << "pass " << pass;
  }
}

}  // namespace
}  // namespace tcgrid
