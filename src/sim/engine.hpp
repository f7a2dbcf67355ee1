// Time-slot simulation engine implementing the paper's execution model
// (§III-C). See DESIGN.md §5 for the slot-by-slot semantics and §8 for the
// event-horizon fast-forward loop.
#pragma once

#include <span>
#include <vector>

#include "model/application.hpp"
#include "model/configuration.hpp"
#include "model/holdings.hpp"
#include "platform/availability.hpp"
#include "platform/platform.hpp"
#include "sim/events.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"

namespace tcgrid::platform {
class Realization;
}

namespace tcgrid::sim {

/// How the master picks which (at most ncom) enrolled UP workers to serve in
/// a slot. The paper does not specify this; Enrollment order matches its
/// Figure 1 walk-through and is the library default. The alternatives exist
/// for the ablation bench.
enum class CommOrder {
  Enrollment,     ///< first enrolled, first served (default)
  FewestFirst,    ///< shortest remaining transfer first
  MostFirst,      ///< longest remaining transfer first
};

struct EngineOptions {
  long slot_cap = 1'000'000;  ///< fail the run if the makespan reaches this
  bool record_trace = false;  ///< keep a per-slot activity trace (costly)
  CommOrder comm_order = CommOrder::Enrollment;
  /// Slots pulled per AvailabilitySource::fill_block call (clamped to
  /// slot_cap). The engine consumes availability in dense blocks instead of
  /// size()+1 virtual calls per slot; any value >= 1 yields the identical
  /// simulation (availability is autonomous, so prefetching it cannot
  /// observe scheduling decisions). Note the prefetch: after run() the
  /// source may have been advanced up to avail_block - 1 slots past the
  /// last simulated slot, so a caller-supplied source should not be reused
  /// to continue the same stream. The default balances the per-block fixed
  /// cost against the prefetch overshoot: sweep-trial makespans are a few
  /// hundred slots, and rows generated past the makespan are the single
  /// largest waste of availability sampling at 256.
  long avail_block = 64;
  /// Event-horizon fast path (DESIGN.md §8): the engine bulk-advances runs
  /// of homogeneous slots — compute slots while every enrolled worker is
  /// UP, suspended slots while some are only RECLAIMED, comm slots while the
  /// served set holds, idle slots with no configuration — consulting the
  /// scheduler only at event slots its Quiescence report does not cover.
  /// Results (counters, iteration stats AND traces) are bit-identical to
  /// the per-slot loop for every scheduler honoring the quiescence
  /// contract; false forces the per-slot loop (the equivalence oracle).
  bool fast_forward = true;
};

/// Drives one application execution: availability advances slot by slot, the
/// scheduler is consulted at every slot its quiescence contract does not
/// rule out, communications respect the master's ncom bound, and the
/// tightly-coupled computation only progresses in slots where every enrolled
/// worker is UP.
class Engine {
 public:
  Engine(const platform::Platform& platform, const model::Application& app,
         platform::AvailabilitySource& availability, Scheduler& scheduler,
         EngineOptions options = {});

  /// Replay mode (DESIGN.md §9): consume a materialized realization instead
  /// of generating availability live. Every slot is read off the
  /// realization: a per-slot step expands its one row from the run-length
  /// intervals and reads the fast-forward digests from the precomputed
  /// bitsets, and the event-horizon bulk advances read their stretches
  /// straight off the intervals and bitsets without expanding the skipped
  /// rows at all (a traced replay looks up each trace row's states).
  /// Results — counters, iteration stats AND traces — are bit-identical to
  /// a live source built from the same (family, seed, init), and so is the
  /// execution telemetry (consults, per-slot steps, bulk-advanced slots),
  /// frozen realizations included. The realization is extended lazily,
  /// so run() can throw platform::RealizationBudgetExceeded; the engine
  /// holds no state worth salvaging after that (construct a fresh one
  /// against a live source and rerun).
  Engine(const platform::Platform& platform, const model::Application& app,
         platform::Realization& realization, Scheduler& scheduler,
         EngineOptions options = {});

  /// Run to completion (all iterations done) or to the slot cap.
  [[nodiscard]] SimulationResult run();

  /// Activity trace recorded during run() (empty unless record_trace).
  [[nodiscard]] const ActivityTrace& trace() const noexcept { return trace_; }

  /// Number of Scheduler::decide calls made during run() so far
  /// (observability: with fast_forward, quiescent schedulers are consulted
  /// only at event slots).
  [[nodiscard]] long consults() const noexcept { return consults_; }

  /// Execution-strategy tallies of the last run() (reset at each run start).
  /// Observability only — see RunTelemetry for why this is not part of
  /// SimulationResult.
  [[nodiscard]] const RunTelemetry& telemetry() const noexcept { return telem_; }

 private:
  /// What the just-processed slot did (drives fast-forward eligibility).
  enum class Phase : unsigned char {
    Idle,       ///< no configuration in place
    Comm,       ///< at least one transfer progressed
    Stalled,    ///< comm phase, but every pending worker was RECLAIMED
    Compute,    ///< all enrolled workers UP, one coupled compute slot banked
    Suspended,  ///< some enrolled worker RECLAIMED, computation suspended
    Completed,  ///< this compute slot finished the iteration
  };

  // --- per-slot phases -----------------------------------------------------
  void step_slot();
  void refresh_states();
  void process_downs();
  [[nodiscard]] bool consult_needed() const;
  void consult_scheduler();
  void install(const model::Configuration& config);
  void serve_communications();
  void advance_computation();
  /// Close the current iteration; `slot` is its last (completing) slot.
  void complete_iteration(long slot);
  void refill_block();

  // --- event-horizon bulk advance (DESIGN.md §8-§9) ------------------------
  // One loop per phase: stretch end (segment, need or finish horizon,
  // first scheduler event, first enrolled change), applied arithmetically,
  // then the stop slot.
  void fast_forward();
  void advance_configured(Quiescence::Kind kind);
  void advance_comm(Quiescence::Kind kind);
  void advance_idle(Quiescence::Kind kind);
  /// Bank [slot_, end) as compute (or suspended) slots; true when that
  /// completed the iteration.
  bool bank_configured(long end, bool compute);
  void apply_comm_progress(std::size_t q, long slots);
  /// Move slot_ to `end` over skipped slots: aggregate crashes, trace rows,
  /// horizon bookkeeping.
  void consume(long end, bool compute);
  /// First slot in [slot_, limit) the latched answer does not cover
  /// (horizon expiry, or a UP-set event its kind names), else `limit`.
  [[nodiscard]] long scheduler_stop(Quiescence::Kind kind, long limit);
  /// Whether a watched worker's UP-membership changes at `slot`.
  [[nodiscard]] bool watched_membership_changed(long slot) const;
  /// Tally one bulk advance that moved slot_ from `before` to its current
  /// value into the given run/slot telemetry pair (no-op for zero-length).
  void note_bulk_advance(long& runs, long& slots, long before, bool jumped);
  void load_enrolled();

  // --- availability queries: the realization (replay) or the dense window
  // (live), picked by mode through jumping(), never per row; both backends
  // answer every query identically ---
  [[nodiscard]] bool jumping() const noexcept { return realization_ != nullptr; }
  /// End of the segment holding slot_ (the window, a frozen realization's
  /// replayed prefix, or the cap); refills the window or switches to live
  /// when slot_ sits at the previous segment's end.
  [[nodiscard]] long segment_end();
  /// First slot in [from, limit) with a UP-membership change or a fresh
  /// DOWN, else `limit`.
  [[nodiscard]] long next_change(long from, long limit);
  [[nodiscard]] bool up_changed_at(long slot) const;
  [[nodiscard]] bool up_gain_at(long slot) const;
  [[nodiscard]] bool new_down_at(long slot) const;
  /// First slot in [slot_, limit) where an enrolled worker's state differs
  /// from slot_ - 1, else `limit`.
  [[nodiscard]] long enrolled_stable_until(long limit);
  /// Row `slot` of the live dense window (or the row just before it).
  [[nodiscard]] const markov::State* window_row(long slot) const;
  [[nodiscard]] markov::State state_at(int q, long slot) const;
  /// Crash the workers newly DOWN in [begin, end).
  void crash_downs(long begin, long end);
  /// Frozen-realization hand-off: continue on the embedded source (standing
  /// exactly at slot_ == frontier) as an ordinary live engine. The replayed
  /// prefix and the live tail are one unbroken stream, so results are
  /// unchanged.
  void switch_to_live();

  // --- helpers ---------------------------------------------------------
  [[nodiscard]] long comm_remaining(int q) const;
  [[nodiscard]] bool comm_phase_done() const;
  [[nodiscard]] bool all_enrolled_up() const;
  [[nodiscard]] bool any_enrolled_down() const;
  void clear_config();
  void reset_comm_remaining();
  void build_view();
  void record_slot();

  Engine(const platform::Platform& platform, const model::Application& app,
         platform::AvailabilitySource* availability,
         platform::Realization* realization, Scheduler& scheduler,
         EngineOptions options);

  const platform::Platform& platform_;
  const model::Application& app_;
  platform::AvailabilitySource* availability_;  ///< live mode (exactly one of
  platform::Realization* realization_;          ///< these two is non-null)
  Scheduler& scheduler_;
  EngineOptions options_;

  // dynamic state
  long slot_ = 0;
  std::span<const markov::State> states_;  ///< current row inside block_
  /// [block_slots_ x p] live availability window; a replay expands each
  /// per-slot row into its first row instead
  std::vector<markov::State> block_;
  long block_slots_ = 0;              ///< min(avail_block, slot_cap)
  long block_pos_ = 0;                ///< rows of block_ already consumed
  long block_filled_ = 0;             ///< rows of block_ currently valid
  long block_base_ = 0;               ///< slot of block_ row 0
  std::vector<model::Holdings> holdings_;
  model::Configuration config_;
  long compute_total_ = 0;
  long compute_done_ = 0;
  long iteration_start_ = 0;
  int iterations_done_ = 0;
  bool finished_ = false;

  // per-slot action annotations; only maintained when tracing (their sole
  // consumer) is on
  std::vector<Action> actions_;

  // per-row digests over the live window, computed in one pass at each
  // refill (fast_forward only). Flags are relative to the previous row,
  // carried across refills (and a switch to live) through prev_row_.
  std::vector<unsigned char> digest_up_changed_;  ///< UP-membership changed
  std::vector<unsigned char> digest_up_gain_;     ///< some proc joined UP
  std::vector<unsigned char> digest_new_down_;    ///< some proc newly DOWN
  std::vector<markov::State> prev_row_;  ///< last row of the previous block
  bool prev_row_valid_ = false;

  // quiescence latch: report of the most recent consult
  const Quiescence* quiesce_ = nullptr;
  long horizon_left_ = 0;           ///< skips still covered by the report
  bool decision_no_change_ = true;  ///< last consult proposed no change
  bool message_completed_ = false;  ///< the last served slot completed a
                                    ///< program or data message
  Phase last_phase_ = Phase::Idle;
  long consults_ = 0;

  // view buffers
  std::vector<long> comm_remaining_buf_;  ///< maintained incrementally;
                                          ///< debug-asserted in build_view
  SchedulerView view_;

  // reusable per-slot buffers (hoisted allocations)
  std::vector<int> pending_;     ///< serve_communications candidates
  std::vector<long> seen_mark_;  ///< per-proc stamp for duplicate detection
  long seen_gen_ = 0;
  std::vector<int> enrolled_buf_;            ///< enrolled procs of a bulk advance

  // bookkeeping
  SimulationResult result_;
  IterationStats current_iter_;
  ActivityTrace trace_;
  RunTelemetry telem_;
};

}  // namespace tcgrid::sim
