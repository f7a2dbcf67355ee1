// Incremental configuration construction (paper §VI-A).
//
// Tasks are placed one at a time: each of the m tasks goes to the UP worker
// (with spare capacity) that optimizes the rule's score for the whole
// partial configuration, accounting for program/data the workers already
// hold. Ties break toward the lower processor index, which makes every
// heuristic fully deterministic given the same view.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/configuration.hpp"
#include "sched/criteria.hpp"
#include "sched/estimator.hpp"
#include "sim/scheduler.hpp"

namespace tcgrid::sched {

/// Result of building a candidate configuration: the configuration (empty if
/// no feasible placement exists) and the estimate of the *full* iteration on
/// it. Aliases the estimator's memo entry type — build results are memoized
/// at the estimator level (shared across the schedulers and trials of a
/// scenario).
using BuiltConfiguration = MemoizedBuild;

/// FNV-1a signature of everything a (non-IY) incremental build reads from a
/// view: per worker, its input word — UP bit, has_program bit and completed
/// data-message count, packed losslessly, and 0 when the worker is not UP (a
/// build never reads a non-UP worker's holdings). The delta rebuild's
/// changed-worker diff compares the same words. Two views with equal
/// signatures and the same platform/application (the estimator's) produce
/// identical builds.
[[nodiscard]] std::uint64_t view_signature(const sim::SchedulerView& view);

/// Like the Estimator it drives, a builder is NOT thread-safe: build()
/// reuses internal scratch buffers and the trace of its last build. Use one
/// per run/thread.
///
/// Delta rebuilds (DESIGN.md §16): a non-IY builder keeps a trace of its
/// last fresh build — per greedy round, every worker's score and estimate
/// plus the round's winner — and the input words of that build's view. The
/// next fresh build diffs the words to find the changed workers D; while
/// every earlier winner is unchanged and outside D, a round's base is the
/// traced one, so only the workers in D are rescored and the winner is
/// re-picked from the stored row. Results are bit-identical to a builder
/// that has never built.
class IncrementalBuilder {
 public:
  IncrementalBuilder(Rule rule, const Estimator& estimator)
      : rule_(rule), estimator_(&estimator) {}

  [[nodiscard]] Rule rule() const noexcept { return rule_; }
  [[nodiscard]] const Estimator& estimator() const noexcept { return *estimator_; }

  /// Build a configuration for the current view (assumes any existing
  /// configuration would be abandoned: partial transfers are not credited;
  /// completed program/data are, per the model). Non-IY builds are memoized
  /// in the estimator's build memo keyed by view_signature — a build is a
  /// pure function of the signed inputs plus the estimator's fixed
  /// platform/application, so hits return exactly what a rebuild would.
  /// The reference is valid until the next build through this estimator.
  [[nodiscard]] const BuiltConfiguration& build_memoized(
      const sim::SchedulerView& view) const;

  /// build_memoized, returning a copy (convenience for install paths).
  [[nodiscard]] BuiltConfiguration build(const sim::SchedulerView& view) const {
    return build_memoized(view);
  }

  /// Disable the memo (ablation: results must be identical either way; the
  /// IY rule always bypasses it — its score depends on elapsed time, which
  /// the signature cannot cover).
  void set_memo(bool on) noexcept { memo_ = on; }

  /// Estimate an arbitrary configuration from scratch under the same
  /// accounting as build() (used to score proactive candidates and, with
  /// explicit remaining quantities, the current configuration).
  [[nodiscard]] IterationEstimate estimate_fresh(const sim::SchedulerView& view,
                                                 const model::Configuration& cfg) const;

 private:
  /// One worker's entry in a traced round: its score and estimate, or
  /// -inf when it was ineligible. A skipped clone holds its class
  /// representative's (bitwise-equal) entry.
  struct Cell {
    double score = 0.0;
    IterationEstimate est;
  };

  /// Trace size cap in cells (rounds x p): rounds past it are rebuilt in
  /// full, which keeps memory bounded for very large m.
  static constexpr std::size_t kTraceCells = std::size_t{1} << 14;

  [[nodiscard]] BuiltConfiguration build_fresh(const sim::SchedulerView& view) const;

  // One greedy round over the scratch state below: begin_round() derives
  // the base shared by every candidate from loads_/order_, evaluate() scores
  // one more task on q against it, place() commits the round's winner.
  void begin_round(const sim::SchedulerView& view) const;
  [[nodiscard]] IterationEstimate evaluate(const sim::SchedulerView& view, int q) const;
  void place(const sim::SchedulerView& view, int q) const;
  [[nodiscard]] bool eligible(const sim::SchedulerView& view, int q) const {
    const auto qi = static_cast<std::size_t>(q);
    return view.states[qi] == markov::State::Up &&
           loads_[qi] < view.platform->proc(q).max_tasks;
  }

  /// Structural identity of an un-enrolled candidate: two UP workers with
  /// equal chain, speed and holdings produce bitwise-identical estimates and
  /// scores, so only the first of each class can win the argmax (ties lose
  /// to the strictly-greater test). Clustered/homogeneous platforms collapse
  /// whole candidate loops onto a handful of classes.
  struct CandClass {
    markov::ChainId chain = 0;
    long speed = 0;
    bool has_program = false;
    int data_messages = 0;
    bool operator==(const CandClass&) const = default;
  };

  Rule rule_;
  const Estimator* estimator_;
  bool memo_ = true;

  // Scratch reused across build calls (cleared on entry, never observable
  // between calls).
  mutable BuiltConfiguration uncached_;
  mutable std::vector<int> loads_;
  mutable std::vector<int> order_;
  mutable std::vector<int> cand_set_;
  mutable std::vector<int> pos_;            // proc -> index in order_ (-1)
  mutable long w_current_ = 0;              // max loads[q] * w_q over order_
  mutable std::uint64_t base_mask_ = 0;     // membership bitmask of order_
  mutable long total_base_ = 0;             // sum of base_slots_
  mutable std::vector<long> base_slots_;    // per order member: fresh need
  mutable std::vector<double> base_e_;      // per order member: comm time
  mutable std::vector<double> pre_max_;     // prefix maxes of base comm times
  mutable std::vector<double> suf_max_;     // suffix maxes of base comm times
  mutable std::vector<CandClass> classes_;
  mutable std::vector<int> class_rep_;      // first worker of each class
  mutable std::vector<long> ts_;            // distinct comm horizons, one round
  mutable std::vector<double> base_prod_;   // survival product over order_ per t
  mutable std::vector<std::uint64_t> words_now_;  // input words of the view

  // Trace of the last traced fresh build; rounds_ == 0 means none.
  mutable std::vector<std::uint64_t> words_;  // input words of its view
  mutable std::vector<Cell> cells_;           // traced rounds x p, row-major
  mutable std::vector<int> winners_;          // per traced round; -1 infeasible
  mutable int rounds_ = 0;
};

}  // namespace tcgrid::sched
