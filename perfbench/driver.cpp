// perfbench_driver — the in-process half of the tcgrid benchmark.
//
// run.py spawns this binary once per measured repetition (so CPU time and
// peak RSS are read from outside, through wait4) and once per run for the
// row reference and the traced pass. Every mode prints exactly one JSON
// object on stdout; the daemon-facing work (spawning tcgrid_serve, the
// socket client, the metrics/counters verbs) lives in run.py.
//
// Modes:
//   spec      --workload W --seed S [--smoke]
//       The workload's spec as canonical JSON (api::spec_to_json), the
//       exact document run.py submits to the daemon.
//   sweep     --seed S [--smoke]
//       One repetition of the `sweep` workload: Session construction, spec
//       validation and scenario enumeration (timed in batches, median batch
//       mean reported), Session::run timed from the call to the last row,
//       then the result file the run wrote (sweep-rows.jsonl in the working
//       directory) parsed back: the in-process replay path.
//   reference --workload W --seed S [--smoke] [--out FILE]
//       In-process Session::run of the workload's spec: its row digest, and
//       with --out the sorted serve::row_line bytes, one row per line.
//   trace     --workload W --seed S [--smoke]
//       The traced run: an untraced single-thread Session::run, then two
//       passes that drive every unit through the layers' public calls,
//       timing each layer from here (no tracing inside the library).
//   host
//       Compiler and build type of this binary.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "api/spec_json.hpp"
#include "expt/runner.hpp"
#include "obs/obs.hpp"
#include "platform/realization.hpp"
#include "scen/registry.hpp"
#include "sched/registry.hpp"
#include "serve/protocol.hpp"
#include "sim/engine.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace tcgrid;
namespace json = util::json;
using Clock = std::chrono::steady_clock;

/// Where `sweep` writes its JSONL result file (in the working directory).
constexpr const char* kSweepRowsFile = "sweep-rows.jsonl";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string mode;
  std::string workload = "sweep";
  std::uint64_t seed = 42;
  bool smoke = false;
  std::string out;
};

/// Traced passes per traced run: two, so exact counts can be compared.
constexpr int kTracePasses = 2;
/// Set-ups per timed batch in `sweep` (five batches are timed).
constexpr int kSetupsPerBatch = 40;

Args parse_args(int argc, char** argv) {
  if (argc < 2) throw std::invalid_argument("usage: perfbench_driver MODE [options]");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + ": missing value");
      return argv[++i];
    };
    if (arg == "--workload") a.workload = next();
    else if (arg == "--seed") a.seed = std::stoull(next());
    else if (arg == "--smoke") a.smoke = true;
    else if (arg == "--out") a.out = next();
    else throw std::invalid_argument("unknown argument '" + arg + "'");
  }
  if (a.workload != "sweep" && a.workload != "serve" && a.workload != "fleet") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  return a;
}

/// The workload's spec. `sweep` and `fleet` run the reduced paper grid at
/// m=5 (2 scenarios/cell x 2 trials = 120 units) over nine heuristics that
/// cover every quiescence class; `serve` runs 10 scenarios/cell (600 units)
/// over the two passive heuristics IP and IE. The seed is the grid's master
/// seed, so it alone determines every scenario and trial. Smoke mode keeps
/// the shapes but shrinks the grid to two cells of one scenario and trial.
api::ExperimentSpec workload_spec(const std::string& workload, std::uint64_t seed,
                                  bool smoke) {
  api::ExperimentSpec spec = api::ExperimentSpec::reduced(5, 50'000);
  spec.options.seed = seed;
  spec.options.threads = 2;
  if (workload == "serve") {
    spec.grid.scenarios_per_cell = 10;
    spec.heuristics = {"IP", "IE"};
  } else {
    spec.heuristics = {"IP",   "IE",   "IAY",   "P-IE", "E-IE",
                       "E-IAY", "Y-IE", "IY",   "RANDOM"};
  }
  if (smoke) {
    spec.grid.ncoms = {5};
    spec.grid.wmins = {1, 2};
    spec.grid.scenarios_per_cell = 1;
    spec.trials = 1;
    spec.options.slot_cap = 20'000;
  }
  return spec;
}

std::string row_bytes(const api::ResultRow& row) {
  return serve::row_line(row.scenario, row.trial, row.heuristic, *row.name, *row.family,
                         *row.params, *row.result);
}

/// FNV-1a over the sorted row lines, each terminated by '\n': an
/// order-independent digest of the row multiset (sorting makes completion
/// order irrelevant; duplicates and omissions both change it).
std::string sorted_digest(std::vector<std::string>& lines) {
  std::sort(lines.begin(), lines.end());
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](unsigned char c) {
    h ^= c;
    h *= 1099511628211ULL;
  };
  for (const std::string& line : lines) {
    for (const unsigned char c : line) mix(c);
    mix('\n');
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Collects every row as serve::row_line bytes — the same serializer the
/// daemon streams with, so in-process and daemon rows compare byte for byte.
class RowLinesSink final : public api::ResultSink {
 public:
  void consume(const api::ResultRow& row) override {
    lines_.push_back(row_bytes(row));
    slots_ += row.result->makespan;
    last_row_ = Clock::now();
  }

  std::vector<std::string>& lines() noexcept { return lines_; }
  [[nodiscard]] long slots() const noexcept { return slots_; }
  [[nodiscard]] Clock::time_point last_row() const noexcept { return last_row_; }

 private:
  std::vector<std::string> lines_;
  long slots_ = 0;
  Clock::time_point last_row_{};
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an unsorted sample.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

void print(const json::Value& v) {
  std::printf("%s\n", json::dump(v).c_str());
  std::fflush(stdout);
}

// ------------------------------------------------------------------ sweep ----

int mode_sweep(const Args& a) {
  const api::ExperimentSpec spec = workload_spec("sweep", a.seed, a.smoke);
  // Set-up is about a microsecond, below what one timing resolves steadily:
  // time batches of back-to-back set-ups and report the median batch mean.
  // Sessions are destroyed outside the timed region.
  std::vector<double> setup_s;
  std::size_t scenarios = 0;
  for (int b = 0; b < 5; ++b) {
    std::vector<std::unique_ptr<api::Session>> batch;
    batch.reserve(kSetupsPerBatch);
    const auto t0 = Clock::now();
    for (int i = 0; i < kSetupsPerBatch; ++i) {
      batch.push_back(std::make_unique<api::Session>(spec.options));
      spec.validate();
      scenarios = spec.scenarios().size();
    }
    setup_s.push_back(seconds_since(t0) / kSetupsPerBatch);
  }
  auto session = std::make_unique<api::Session>(spec.options);

  // The rows also go to a JSONL file through api::JsonlSink: the result
  // file a client of the in-process API keeps and reads back.
  RowLinesSink rows;
  double run_s = 0.0;
  api::Session::RunStats stats;
  {
    api::JsonlSink file(kSweepRowsFile);
    const auto t0 = Clock::now();
    stats = session->run(spec, {&rows, &file});
    run_s = std::chrono::duration<double>(rows.last_row() - t0).count();
  }

  // Re-reading the finished sweep: parse the result file back with the
  // library's JSON reader. A few milliseconds, so repeated, median kept.
  std::vector<double> replay_s;
  bool replay_match = true;
  for (int r = 0; r < 40; ++r) {
    const auto t1 = Clock::now();
    std::ifstream in(kSweepRowsFile);
    std::string line;
    std::size_t parsed = 0;
    long makespans = 0;
    while (std::getline(in, line)) {
      const json::Value row = json::parse(line);
      if (const json::Value* makespan = row.find("makespan"); makespan != nullptr) {
        makespans += static_cast<long>(makespan->as_int());
        ++parsed;
      }
    }
    replay_s.push_back(seconds_since(t1));
    replay_match = replay_match && parsed == rows.lines().size() && makespans == rows.slots();
  }

  const std::size_t n_rows = rows.lines().size();
  const std::string digest = sorted_digest(rows.lines());
  print(json::Object{
      {"setup_s", median(setup_s)},
      {"run_s", run_s},
      {"replay_s", median(replay_s)},
      {"rows", n_rows},
      {"rows_expected", scenarios * spec.resolved_heuristics().size() *
                            static_cast<std::size_t>(spec.trials)},
      {"units", stats.units_done},
      {"slots", rows.slots()},
      {"digest", digest},
      {"replay_match", replay_match},
  });
  return 0;
}

// -------------------------------------------------------------- reference ----

int mode_reference(const Args& a) {
  api::ExperimentSpec spec = workload_spec(a.workload, a.seed, a.smoke);
  spec.options.threads = 0;  // hardware: the reference is not timed
  api::Session session(spec.options);
  RowLinesSink rows;
  session.run(spec, {&rows});
  const std::size_t n_rows = rows.lines().size();
  const std::string digest = sorted_digest(rows.lines());
  if (!a.out.empty()) {
    std::FILE* f = std::fopen(a.out.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + a.out);
    for (const std::string& line : rows.lines()) {
      std::fwrite(line.data(), 1, line.size(), f);
      std::fputc('\n', f);
    }
    if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + a.out);
  }
  print(json::Object{{"rows", n_rows}, {"slots", rows.slots()}, {"digest", digest}});
  return 0;
}

// ------------------------------------------------------------------ trace ----

/// Per-heuristic decision-layer tally of one traced pass.
struct DecideTally {
  std::int64_t decide_ns = 0;
  long consults = 0;
};

/// Forwarding scheduler: times every decide() and passes the quiescence
/// report through unchanged, so the engine skips exactly the slots it would
/// skip with the bare scheduler (the traced rows must equal the untraced).
class TimedScheduler final : public sim::Scheduler {
 public:
  TimedScheduler(sim::Scheduler& inner, DecideTally& tally)
      : inner_(inner), tally_(tally) {}

  std::optional<model::Configuration> decide(const sim::SchedulerView& view) override {
    const auto t0 = Clock::now();
    std::optional<model::Configuration> out = inner_.decide(view);
    tally_.decide_ns +=
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    ++tally_.consults;
    return out;
  }
  [[nodiscard]] const sim::Quiescence& quiescence() const override {
    return inner_.quiescence();
  }
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }

 private:
  sim::Scheduler& inner_;
  DecideTally& tally_;
};

/// Everything one traced pass measures. Counts are machine-independent;
/// times are wall microseconds.
struct TracePass {
  double wall_s = 0.0;  ///< the pass, minus the materialization re-timing
  std::vector<DecideTally> decide;  ///< per heuristic, spec order
  long memo_growth = 0;             ///< fresh builds: growth of build memos
  long memo_consults = 0;           ///< consults of memoizing heuristics
  double estimator_build_us = 0.0;
  long estimators_built = 0;
  double materialize_us = 0.0;
  long materialized_slots = 0;
  std::size_t realization_peak_bytes = 0;
  long budget_fallbacks = 0;
  double engine_us = 0.0;
  long slots = 0;
  long bulk_slots = 0;
  long per_slot_steps = 0;
  long replay_jumps = 0;
  long engine_consults = 0;
  std::vector<double> unit_us;
  markov::ChainStatsStore::Counters store{};
  double intern_us = 0.0;
  double survival_grow_us = 0.0;
  std::string digest;
  std::size_t rows = 0;
};

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Heuristics of the benchmark's specs whose consults probe the estimator's
/// build memo (sched::IncrementalBuilder::build goes through it; the IY rule
/// bypasses it and RANDOM does not build).
bool memoizing(const std::string& h) { return h != "IY" && h != "RANDOM"; }

/// One traced pass over every unit of `spec`, single-threaded in unit-index
/// order, following Session::run_unit's sequence with public calls only.
TracePass traced_pass(const api::ExperimentSpec& spec) {
  TracePass p;
  const api::Options& options = spec.options;
  const std::vector<platform::ScenarioParams> scenarios = spec.scenarios();
  const std::vector<std::string>& heuristics = spec.resolved_heuristics();
  const auto family = scen::availability_family(spec.scenario_space.availability);
  p.decide.assign(heuristics.size(), DecideTally{});
  std::vector<std::string> lines;

  obs::Registry::instance().reset_values();
  const auto t_pass = Clock::now();
  api::Session session(options);
  std::vector<bool> built(scenarios.size(), false);
  for (std::size_t sc = 0; sc < scenarios.size(); ++sc) {
    for (int trial = 0; trial < spec.trials; ++trial) {
      const auto t_unit = Clock::now();
      // 1. The scenario's estimator (built on the first unit of a scenario).
      const sched::Estimator& estimator = session.estimator_for(scenarios[sc]);
      const auto t_est = Clock::now();
      if (!built[sc]) {
        built[sc] = true;
        ++p.estimators_built;
        p.estimator_build_us += us_between(t_unit, t_est);
      }
      const platform::Scenario& scenario = session.scenario_for(scenarios[sc]);
      const std::size_t memo_before = estimator.build_memo().size();

      // 2. The trial's availability source behind a shared realization.
      const std::uint64_t trial_seed = expt::trial_seed(scenario, trial);
      std::optional<platform::Realization> realization;
      if (options.realization_budget > 0) {
        realization.emplace(family->make_source(scenario.platform, trial_seed, options.init),
                            options.realization_budget);
      }
      std::vector<sim::SimulationResult> results(heuristics.size());
      for (std::size_t h = 0; h < heuristics.size(); ++h) {
        // 3. The scheduler, wrapped to time decide().
        auto make_timed = [&](auto&& run) {
          auto inner = sched::make_scheduler(
              heuristics[h], estimator,
              util::derive_seed(scenario.params.seed, 2000 + static_cast<std::uint64_t>(trial)));
          TimedScheduler timed(*inner, p.decide[h]);
          return run(timed);
        };
        // 4. The engine over the realization (live source on budget overflow).
        auto account = [&p](const sim::Engine& engine, Clock::time_point t0) {
          p.engine_us += us_between(t0, Clock::now());
          const sim::RunTelemetry& t = engine.telemetry();
          p.per_slot_steps += t.per_slot_steps;
          p.bulk_slots += t.bulk_slots_comm + t.bulk_slots_configured + t.bulk_slots_idle;
          p.replay_jumps += t.replay_jumps;
          p.engine_consults += engine.consults();
        };
        if (realization.has_value()) {
          if (h + 1 == heuristics.size()) realization->freeze();
          try {
            results[h] = make_timed([&](sim::Scheduler& s) {
              sim::Engine engine(scenario.platform, scenario.app, *realization, s,
                                 options.engine());
              const auto t0 = Clock::now();
              sim::SimulationResult r = engine.run();
              account(engine, t0);
              return r;
            });
            continue;
          } catch (const platform::RealizationBudgetExceeded&) {
            realization.reset();
            ++p.budget_fallbacks;
          }
        }
        results[h] = make_timed([&](sim::Scheduler& s) {
          auto live = family->make_source(scenario.platform, trial_seed, options.init);
          sim::Engine engine(scenario.platform, scenario.app, *live, s, options.engine());
          const auto t0 = Clock::now();
          sim::SimulationResult r = engine.run();
          account(engine, t0);
          return r;
        });
      }
      p.unit_us.push_back(us_between(t_unit, Clock::now()));
      p.memo_growth += static_cast<long>(estimator.build_memo().size() - memo_before);

      // Materialization re-timed from outside: a fresh realization of the
      // same trial, ensured up to the frontier the unit reached.
      if (realization.has_value()) {
        const long frontier = realization->frontier();
        p.realization_peak_bytes = std::max(p.realization_peak_bytes, realization->bytes());
        platform::Realization again(
            family->make_source(scenario.platform, trial_seed, options.init),
            options.realization_budget);
        const auto t0 = Clock::now();
        again.ensure(frontier);
        p.materialize_us += us_between(t0, Clock::now());
        p.materialized_slots += frontier;
      }

      for (std::size_t h = 0; h < heuristics.size(); ++h) {
        api::ResultRow row;
        row.heuristic = h;
        row.scenario = sc;
        row.trial = trial;
        row.name = &heuristics[h];
        row.family = &spec.scenario_space.availability;
        row.params = &scenarios[sc];
        row.result = &results[h];
        lines.push_back(row_bytes(row));
        p.slots += results[h].makespan;
      }
    }
  }
  p.wall_s = seconds_since(t_pass) - p.materialize_us / 1e6;
  for (std::size_t h = 0; h < heuristics.size(); ++h) {
    if (memoizing(heuristics[h])) p.memo_consults += p.decide[h].consults;
  }
  p.store = session.chain_store_counters();
  const obs::Snapshot snap = api::Session::scrape();
  if (const obs::MetricSnapshot* m = snap.find("tcgrid_chainstats_intern_us")) {
    p.intern_us = static_cast<double>(m->sum);
  }
  if (const obs::MetricSnapshot* m = snap.find("tcgrid_chainstats_survival_grow_us")) {
    p.survival_grow_us = static_cast<double>(m->sum);
  }
  p.rows = lines.size();
  p.digest = sorted_digest(lines);
  return p;
}

/// The machine-independent counts of a pass, by metric name. Two passes of
/// the same spec must agree on every one of them exactly.
std::map<std::string, long long> exact_counts(const TracePass& p,
                                              const std::vector<std::string>& heuristics) {
  std::map<std::string, long long> c;
  long consults = 0;
  for (std::size_t h = 0; h < heuristics.size(); ++h) {
    c["sched.consults." + heuristics[h]] = p.decide[h].consults;
    consults += p.decide[h].consults;
  }
  c["sched.consults"] = consults;
  c["sched.fresh_builds"] = p.memo_growth;
  c["sched.estimators_built"] = p.estimators_built;
  c["platform.materialized_slots"] = p.materialized_slots;
  c["platform.realization_peak_bytes"] = static_cast<long long>(p.realization_peak_bytes);
  c["platform.budget_fallbacks"] = p.budget_fallbacks;
  c["sim.slots"] = p.slots;
  c["sim.bulk_slots"] = p.bulk_slots;
  c["sim.per_slot_steps"] = p.per_slot_steps;
  c["sim.replay_jumps"] = p.replay_jumps;
  c["markov.chains"] = static_cast<long long>(p.store.chains);
  c["markov.intern_hits"] = static_cast<long long>(p.store.intern_hits);
  c["markov.set_hits"] = static_cast<long long>(p.store.set_hits);
  c["markov.set_misses"] = static_cast<long long>(p.store.set_misses);
  c["markov.survival_entries"] = static_cast<long long>(p.store.survival_entries);
  c["markov.store_bytes"] = static_cast<long long>(p.store.bytes);
  return c;
}

int mode_trace(const Args& a) {
  api::ExperimentSpec spec = workload_spec(a.workload, a.seed, a.smoke);
  spec.options.threads = 1;  // the traced drive is single-threaded too
  const std::vector<std::string>& heuristics = spec.resolved_heuristics();

  // Untraced baseline at the same parallelism, obs off.
  obs::configure({});
  RowLinesSink untraced;
  double untraced_s = 0.0;
  {
    api::Session session(spec.options);
    const auto t0 = Clock::now();
    session.run(spec, {&untraced});
    untraced_s = seconds_since(t0);
  }
  const std::string untraced_digest = sorted_digest(untraced.lines());

  // Traced passes read the chain store's own timers, so obs is on for them.
  obs::Options traced_obs;
  traced_obs.enabled = true;
  obs::configure(traced_obs);
  std::vector<TracePass> passes;
  for (int i = 0; i < kTracePasses; ++i) passes.push_back(traced_pass(spec));
  obs::configure({});

  bool exact_repeat = true;
  bool digests_match = true;
  std::vector<std::string> mismatched;
  const auto reference_counts = exact_counts(passes.front(), heuristics);
  std::vector<double> wall;
  for (const TracePass& p : passes) {
    wall.push_back(p.wall_s);
    digests_match = digests_match && p.digest == untraced_digest &&
                    p.rows == untraced.lines().size() && p.slots == untraced.slots();
    for (const auto& [name, value] : exact_counts(p, heuristics)) {
      if (reference_counts.at(name) != value) {
        exact_repeat = false;
        mismatched.push_back(name);
      }
    }
  }
  const double traced_s = median(wall);
  // The forwarding wrapper must see every consult the engine makes.
  long wrapped = 0;
  for (const DecideTally& t : passes.front().decide) wrapped += t.consults;
  const bool consults_match = wrapped == passes.front().engine_consults;

  // Timings: medians over passes of the per-pass totals; the first pass
  // supplies the counts (identical in every pass when exact_repeat).
  auto med = [&](auto field) {
    std::vector<double> v;
    for (const TracePass& p : passes) v.push_back(field(p));
    return median(v);
  };
  const TracePass& p0 = passes.front();
  json::Object m;
  double decide_us = 0.0;
  for (std::size_t h = 0; h < heuristics.size(); ++h) {
    const double us = med([h](const TracePass& p) {
      return static_cast<double>(p.decide[h].decide_ns) / 1000.0;
    });
    m.emplace_back("sched.decide_us." + heuristics[h], us);
    decide_us += us;
  }
  m.emplace_back("sched.decide_us", decide_us);
  for (const auto& [name, value] : reference_counts) m.emplace_back(name, value);
  m.emplace_back("sched.memo_hit_ratio",
                 p0.memo_consults > 0
                     ? 1.0 - static_cast<double>(p0.memo_growth) /
                                 static_cast<double>(p0.memo_consults)
                     : 0.0);
  m.emplace_back("sched.estimator_build_us",
                 med([](const TracePass& p) { return p.estimator_build_us; }));
  const double materialize_us = med([](const TracePass& p) { return p.materialize_us; });
  m.emplace_back("platform.materialize_us", materialize_us);
  const double self_us = med([](const TracePass& p) {
    double decide = 0.0;
    for (const DecideTally& t : p.decide) decide += static_cast<double>(t.decide_ns) / 1000.0;
    return p.engine_us - decide - p.materialize_us;
  });
  m.emplace_back("sim.engine_self_us", self_us);
  m.emplace_back("sim.ns_per_slot",
                 p0.slots > 0 ? 1000.0 * self_us / static_cast<double>(p0.slots) : 0.0);
  const double set_probes = static_cast<double>(p0.store.set_hits + p0.store.set_misses);
  m.emplace_back("markov.set_hit_ratio",
                 set_probes > 0 ? static_cast<double>(p0.store.set_hits) / set_probes : 0.0);
  m.emplace_back("markov.survival_grow_us",
                 med([](const TracePass& p) { return p.survival_grow_us; }));
  m.emplace_back("markov.intern_us", med([](const TracePass& p) { return p.intern_us; }));
  std::vector<double> unit_us;
  for (const TracePass& p : passes) unit_us.insert(unit_us.end(), p.unit_us.begin(), p.unit_us.end());
  m.emplace_back("api.unit_us_p50", percentile(unit_us, 0.50));
  m.emplace_back("api.unit_us_p90", percentile(unit_us, 0.90));
  m.emplace_back("api.unit_samples", unit_us.size());
  m.emplace_back("obs.trace_overhead", traced_s / untraced_s - 1.0);

  json::Array bad;
  for (const std::string& name : mismatched) bad.emplace_back(name);
  print(json::Object{
      {"metrics", std::move(m)},
      {"digest", passes.front().digest},
      {"untraced_digest", untraced_digest},
      {"rows", untraced.lines().size()},
      {"units", p0.unit_us.size()},
      {"untraced_s", untraced_s},
      {"traced_s", traced_s},
      {"passes", passes.size()},
      {"digests_match", digests_match},
      {"consults_match", consults_match},
      {"exact_repeat", exact_repeat},
      {"inexact", std::move(bad)},
  });
  return digests_match && exact_repeat && consults_match ? 0 : 3;
}

// ------------------------------------------------------------------- main ----

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  if (a.mode == "spec") {
    print(api::spec_to_json(workload_spec(a.workload, a.seed, a.smoke)));
    return 0;
  }
  if (a.mode == "sweep") return mode_sweep(a);
  if (a.mode == "reference") return mode_reference(a);
  if (a.mode == "trace") return mode_trace(a);
  if (a.mode == "host") {
    print(json::Object{{"compiler", PERFBENCH_COMPILER},
                       {"build_type", PERFBENCH_BUILD_TYPE}});
    return 0;
  }
  throw std::invalid_argument("unknown mode '" + a.mode + "'");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
