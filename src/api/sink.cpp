#include "api/sink.hpp"

#include <ostream>
#include <stdexcept>

#include "api/spec.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace tcgrid::api {

std::ofstream open_or_throw(const std::string& path) {
  std::ofstream file(path);
  if (!file.is_open()) {
    throw std::runtime_error("cannot open result sink file: " + path);
  }
  return file;
}

// ---------------------------------------------------------- AggregateSink ----

void AggregateSink::begin(const ExperimentSpec& spec,
                          const std::vector<platform::ScenarioParams>& scenarios,
                          const std::vector<std::string>& heuristics) {
  results_ = expt::SweepResults{};
  results_.heuristics = heuristics;
  results_.scenarios = scenarios;
  results_.outcomes.assign(heuristics.size(),
                           std::vector<expt::ScenarioOutcomes>(scenarios.size()));
  for (auto& per_scenario : results_.outcomes) {
    for (auto& trials : per_scenario) {
      trials.resize(static_cast<std::size_t>(spec.trials));
    }
  }
}

void AggregateSink::consume(const ResultRow& row) {
  results_.outcomes[row.heuristic][row.scenario][static_cast<std::size_t>(row.trial)] =
      expt::TrialOutcome{row.result->success, row.result->makespan};
}

// ---------------------------------------------------------------- CsvSink ----

const std::vector<std::string>& CsvSink::header() {
  static const std::vector<std::string> h = {
      "heuristic", "family",   "m",        "ncom",      "wmin",
      "scenario_seed", "trial", "success", "makespan",  "restarts",
      "reconfigs", "idle_slots"};
  return h;
}

void CsvSink::begin(const ExperimentSpec&,
                    const std::vector<platform::ScenarioParams>&,
                    const std::vector<std::string>&) {
  // One header even when the sink accumulates several runs (e.g. a sweep
  // per availability family streaming into one file).
  if (header_written_) return;
  header_written_ = true;
  bool first = true;
  for (const auto& col : header()) {
    *out_ << (first ? "" : ",") << col;
    first = false;
  }
  *out_ << '\n';
}

void CsvSink::consume(const ResultRow& row) {
  const auto& p = *row.params;
  const auto& r = *row.result;
  // Both string fields pass through RFC-4180 quoting: registry names are
  // caller-chosen, so commas, quotes and newlines must round-trip, not
  // corrupt the stream.
  *out_ << util::CsvWriter::escape(*row.name) << ','
        << util::CsvWriter::escape(row.family != nullptr ? *row.family : std::string())
        << ',' << p.m << ',' << p.ncom << ',' << p.wmin << ',' << p.seed << ','
        << row.trial << ',' << (r.success ? '1' : '0') << ',' << r.makespan << ','
        << r.total_restarts << ',' << r.total_reconfigurations << ',' << r.idle_slots
        << '\n';
}

void CsvSink::finish() {
  out_->flush();
  if (out_->fail()) {
    throw std::runtime_error("CsvSink: write failure (disk full or closed stream?)");
  }
}

// -------------------------------------------------------------- JsonlSink ----

void JsonlSink::consume(const ResultRow& row) {
  const auto& p = *row.params;
  const auto& r = *row.result;
  // Registry names are caller-chosen strings: quote them with everything
  // JSON requires escaped, so no name can corrupt the stream.
  std::string head = R"({"heuristic":)";
  util::json::append_quoted(*row.name, head);
  head += R"(,"family":)";
  util::json::append_quoted(
      row.family != nullptr ? std::string_view(*row.family) : std::string_view(), head);
  *out_ << head << R"(,"m":)" << p.m << R"(,"ncom":)" << p.ncom << R"(,"wmin":)" << p.wmin
        << R"(,"scenario_seed":)" << p.seed << R"(,"trial":)" << row.trial
        << R"(,"success":)" << (r.success ? "true" : "false") << R"(,"makespan":)"
        << r.makespan << R"(,"iterations":)" << r.iterations_completed
        << R"(,"restarts":)" << r.total_restarts << R"(,"reconfigs":)"
        << r.total_reconfigurations << R"(,"idle_slots":)" << r.idle_slots << "}\n";
}

void JsonlSink::finish() {
  out_->flush();
  if (out_->fail()) {
    throw std::runtime_error("JsonlSink: write failure (disk full or closed stream?)");
  }
}

}  // namespace tcgrid::api
