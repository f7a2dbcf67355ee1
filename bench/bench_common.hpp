// Shared plumbing for the table/figure reproduction benches: CLI ->
// api::ExperimentSpec, progress reporting, and the paper's published numbers
// for side-by-side comparison.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "expt/report.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"

namespace tcgrid::bench {

/// The flags spec_from_cli and run_and_aggregate read, plus `extra`: the
/// accepted list of a bench built on them.
inline std::vector<std::string> sweep_flags(std::vector<std::string> extra = {}) {
  for (const char* flag :
       {"full", "scenarios", "trials", "cap", "eps", "seed", "threads", "raw-csv", "jsonl"}) {
    extra.emplace_back(flag);
  }
  return extra;
}

/// Scale knobs common to every reproduction bench.
///
/// Defaults are a reduced sweep that preserves the paper's factorial
/// structure (all ncom and wmin values) but runs in minutes on one core;
/// `--full` restores the paper's exact scale (10 scenarios x 10 trials,
/// 10^6-slot cap).
inline api::ExperimentSpec spec_from_cli(const util::Cli& cli, int m,
                                         long default_cap) {
  const bool full = cli.get_bool("full");
  api::ExperimentSpec spec = full ? api::ExperimentSpec::paper(m)
                                  : api::ExperimentSpec::reduced(m, default_cap);
  spec.grid.scenarios_per_cell =
      static_cast<int>(cli.get_long("scenarios", spec.grid.scenarios_per_cell));
  spec.trials = static_cast<int>(cli.get_long("trials", spec.trials));
  spec.options.slot_cap = cli.get_long("cap", spec.options.slot_cap);
  spec.options.eps = cli.get_double("eps", 1e-6);
  spec.options.seed = static_cast<std::uint64_t>(cli.get_long("seed", 42));
  spec.options.threads = static_cast<std::size_t>(cli.get_long("threads", 0));
  return spec;
}

inline void print_header(const std::string& what, const api::ExperimentSpec& spec) {
  std::cout << "== " << what << " ==\n"
            << "sweep: m=" << spec.grid.ms[0] << " ncom={5,10,20} wmin=1..10, "
            << spec.grid.scenarios_per_cell << " scenario(s)/cell x " << spec.trials
            << " trial(s), cap=" << spec.options.slot_cap
            << " slots, seed=" << spec.options.seed
            << "\n(paper scale: --full; knobs: --scenarios N --trials N --cap N"
               " --seed N --threads N;\n --jsonl PATH / --raw-csv PATH stream raw"
               " outcomes)\n\n";
}

inline std::function<void(std::size_t, std::size_t)> progress_printer() {
  return [](std::size_t done, std::size_t total) {
    if (done == total || done % 10 == 0) {
      std::fprintf(stderr, "\r  scenarios %zu/%zu", done, total);
      if (done == total) std::fprintf(stderr, "\n");
      std::fflush(stderr);
    }
  };
}

/// Run the sweep through the facade, aggregating in memory and optionally
/// streaming raw outcomes to CSV/JSONL files named on the command line
/// (--raw-csv PATH, --jsonl PATH).
inline expt::SweepResults run_and_aggregate(const api::ExperimentSpec& spec,
                                            const util::Cli& cli) {
  api::Session session;
  api::AggregateSink aggregate;
  try {
    std::vector<api::ResultSink*> sinks{&aggregate};

    std::optional<api::CsvSink> csv;
    if (cli.has("raw-csv")) {
      csv.emplace(cli.get("raw-csv", "outcomes.csv"));
      sinks.push_back(&*csv);
    }
    std::optional<api::JsonlSink> jsonl;
    if (cli.has("jsonl")) {
      jsonl.emplace(cli.get("jsonl", "outcomes.jsonl"));
      sinks.push_back(&*jsonl);
    }

    session.run(spec, sinks, progress_printer());
  } catch (const std::invalid_argument& e) {
    // Up-front spec validation failure (bad CLI values): report and exit
    // cleanly instead of aborting on an uncaught exception.
    std::cerr << "invalid experiment spec: " << e.what() << '\n';
    std::exit(2);
  } catch (const std::runtime_error& e) {
    // Sink construction failure (unwritable --raw-csv/--jsonl path).
    std::cerr << e.what() << '\n';
    std::exit(2);
  }
  return std::move(aggregate).take();
}

/// Write one BENCH_*.json CI artifact: canonical dump through util/json —
/// the same serializer the serve protocol and the obs exposition use —
/// replacing the per-bench hand-rolled snprintf emitters. Returns 0, or 1
/// (with a message on stderr) when the path is unwritable.
inline int write_json_artifact(const char* bench_name, const std::string& path,
                               const util::json::Value& artifact) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "%s: cannot write %s\n", bench_name, path.c_str());
    return 1;
  }
  out << util::json::dump(artifact) << '\n';
  std::fprintf(stderr, "%s: wrote %s\n", bench_name, path.c_str());
  return 0;
}

/// The %diff values published in the paper's Table I (m = 5).
inline const std::map<std::string, double>& paper_table1_diff() {
  static const std::map<std::string, double> v = {
      {"Y-IE", -11.82}, {"P-IE", -10.50},  {"E-IAY", -10.40}, {"E-IY", -3.40},
      {"IE", 0.00},     {"IAY", 13.59},    {"E-IP", 19.35},   {"IY", 24.22},
      {"IP", 52.03},    {"E-IE", 53.93},   {"Y-IAY", 99.75},  {"Y-IY", 113.01},
      {"P-IAY", 125.27},{"Y-IP", 145.05},  {"P-IY", 145.78},  {"P-IP", 176.92},
      {"RANDOM", 2124.42}};
  return v;
}

/// The %diff values published in the paper's Table II (m = 10, best 8).
inline const std::map<std::string, double>& paper_table2_diff() {
  static const std::map<std::string, double> v = {
      {"Y-IE", -10.33}, {"P-IE", -8.62}, {"E-IAY", -6.10}, {"E-IY", 8.04},
      {"E-IP", 29.68},  {"IAY", 136.65}, {"IY", 147.77},   {"IE", 0.00}};
  return v;
}

/// Thread-count-independent digest of a sweep's outcomes: per row, an FNV
/// hash over the coordinates and EVERY per-trial counter (iteration stats
/// included), XOR-folded so completion order cannot matter. The divergence
/// gates of bench_engine (fast-forward on vs off) and bench_sweep (shared
/// realizations vs live generation) both compare these digests — one
/// implementation, so a counter added to sim::SimulationResult is either
/// covered by both gates or by neither (grep for this class when extending
/// the result structs).
class DigestSink final : public api::ResultSink {
 public:
  void consume(const api::ResultRow& row) override {
    const sim::SimulationResult& r = *row.result;
    std::uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ULL;
    };
    mix(static_cast<std::uint64_t>(row.heuristic));
    mix(static_cast<std::uint64_t>(row.scenario));
    mix(static_cast<std::uint64_t>(row.trial));
    mix(static_cast<std::uint64_t>(r.makespan));
    mix(static_cast<std::uint64_t>(r.success ? 1 : 0));
    mix(static_cast<std::uint64_t>(r.total_restarts));
    mix(static_cast<std::uint64_t>(r.total_reconfigurations));
    mix(static_cast<std::uint64_t>(r.idle_slots));
    for (const auto& it : r.iterations) {
      mix(static_cast<std::uint64_t>(it.start_slot));
      mix(static_cast<std::uint64_t>(it.end_slot));
      mix(static_cast<std::uint64_t>(it.comm_slots));
      mix(static_cast<std::uint64_t>(it.stalled_slots));
      mix(static_cast<std::uint64_t>(it.compute_slots));
      mix(static_cast<std::uint64_t>(it.suspended_slots));
    }
    digest_ ^= h;  // order-independent fold
    ++rows_;
    slots_ += r.makespan;
  }

  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] long slots() const noexcept { return slots_; }

 private:
  std::uint64_t digest_ = 0;
  std::size_t rows_ = 0;
  long slots_ = 0;
};

/// Render summaries with the paper's published %diff as an extra column.
inline util::Table table_with_paper_column(
    const std::vector<expt::HeuristicSummary>& summaries,
    const std::map<std::string, double>& paper) {
  util::Table table(
      {"Heuristic", "#fails", "%diff", "%wins", "%wins30", "stdv", "paper %diff"});
  for (const auto& s : summaries) {
    auto it = paper.find(s.name);
    table.add_row({s.name, std::to_string(s.fails), util::Table::num(s.pct_diff),
                   util::Table::num(s.pct_wins), util::Table::num(s.pct_wins30),
                   util::Table::num(s.stdv),
                   it == paper.end() ? "-" : util::Table::num(it->second)});
  }
  return table;
}

}  // namespace tcgrid::bench
