#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "platform/realization.hpp"

namespace tcgrid::sim {

namespace {

inline bool is_up(markov::State s) noexcept { return s == markov::State::Up; }

}  // namespace

Engine::Engine(const platform::Platform& platform, const model::Application& app,
               platform::AvailabilitySource& availability, Scheduler& scheduler,
               EngineOptions options)
    : Engine(platform, app, &availability, nullptr, scheduler, options) {}

Engine::Engine(const platform::Platform& platform, const model::Application& app,
               platform::Realization& realization, Scheduler& scheduler,
               EngineOptions options)
    : Engine(platform, app, nullptr, &realization, scheduler, options) {}

Engine::Engine(const platform::Platform& platform, const model::Application& app,
               platform::AvailabilitySource* availability,
               platform::Realization* realization, Scheduler& scheduler,
               EngineOptions options)
    : platform_(platform),
      app_(app),
      availability_(availability),
      realization_(realization),
      scheduler_(scheduler),
      options_(options) {
  app_.validate();
  const int avail_size =
      availability_ != nullptr ? availability_->size() : realization_->size();
  if (avail_size != platform_.size()) {
    throw std::invalid_argument("Engine: availability/platform size mismatch");
  }
  if (options_.slot_cap < 1) throw std::invalid_argument("Engine: slot_cap < 1");
  if (options_.avail_block < 1) throw std::invalid_argument("Engine: avail_block < 1");
  // A block never needs to exceed the run length: clamping bounds the buffer
  // (and the prefetch overshoot) by slot_cap however large the option is.
  block_slots_ = std::min(options_.avail_block, options_.slot_cap);
  const auto p = static_cast<std::size_t>(platform_.size());
  holdings_.resize(p);
  actions_.resize(p);
  comm_remaining_buf_.resize(p);
  seen_mark_.resize(p, 0);
  block_.resize(p * static_cast<std::size_t>(block_slots_));
  states_ = std::span(block_.data(), p);  // re-pointed every slot
  if (options_.fast_forward) {
    const auto rows = static_cast<std::size_t>(block_slots_);
    digest_up_changed_.resize(rows);
    digest_up_gain_.resize(rows);
    digest_new_down_.resize(rows);
    prev_row_.resize(p);
  }
}

SimulationResult Engine::run() {
  result_ = {};
  current_iter_ = {};
  telem_ = {};
  trace_.clear();
  iteration_start_ = 0;
  consults_ = 0;
  // Full re-run reset: a second run() continues a live source's stream (or
  // replays a realization from slot 0) with clean application state.
  finished_ = false;
  iterations_done_ = 0;
  config_ = model::Configuration{};
  compute_total_ = 0;
  compute_done_ = 0;
  std::fill(holdings_.begin(), holdings_.end(), model::Holdings{});
  std::fill(comm_remaining_buf_.begin(), comm_remaining_buf_.end(), 0);

  block_pos_ = block_filled_ = 0;  // (re-)pull from the source's current slot
  block_base_ = 0;
  prev_row_valid_ = false;
  quiesce_ = nullptr;
  horizon_left_ = 0;
  decision_no_change_ = true;
  message_completed_ = false;
  last_phase_ = Phase::Idle;

  slot_ = 0;
  while (slot_ < options_.slot_cap && !finished_) {
    step_slot();
    if (options_.fast_forward && !finished_) fast_forward();
  }

  result_.iterations_completed = iterations_done_;
  result_.success = finished_;
  result_.makespan = finished_ ? slot_ : options_.slot_cap;
  return result_;
}

void Engine::step_slot() {
  ++telem_.per_slot_steps;
  refresh_states();
  // Action annotations only feed the trace; when tracing is off every write
  // to actions_ below is skipped (each site checks record_trace).
  if (options_.record_trace) std::fill(actions_.begin(), actions_.end(), Action::None);

  process_downs();
  if (consult_needed()) consult_scheduler();

  if (!config_.empty()) {
    if (!comm_phase_done()) serve_communications();
    else advance_computation();
  } else {
    ++result_.idle_slots;
    last_phase_ = Phase::Idle;
  }
  record_slot();
  ++slot_;
}

void Engine::refill_block() {
  // Live mode only: availability is consumed through the block-stepping
  // contract — one fill_block call (which also advances the source) per
  // avail_block slots, then row-wise consumption, no per-processor virtual
  // dispatch.
  assert(realization_ == nullptr);
  const std::size_t p = holdings_.size();
  if (options_.fast_forward && block_filled_ > 0) {
    // Keep the outgoing block's last row: the incoming block's first-row
    // digests are relative to it.
    std::copy_n(block_.data() + static_cast<std::size_t>(block_filled_ - 1) * p, p,
                prev_row_.data());
    prev_row_valid_ = true;
  }
  availability_->fill_block(block_.data(), block_slots_);
  block_base_ = slot_;
  block_filled_ = block_slots_;
  block_pos_ = 0;

  if (!options_.fast_forward) return;
  // One pass over the dense [slot][proc] buffer: per-row digests of how the
  // row differs from its predecessor. These are what lets the fast-forward
  // loop classify a whole run of slots without re-reading full rows.
  const markov::State* prev = prev_row_valid_ ? prev_row_.data() : nullptr;
  for (long r = 0; r < block_filled_; ++r) {
    const markov::State* row = block_.data() + static_cast<std::size_t>(r) * p;
    unsigned char chg = 0;
    unsigned char gain = 0;
    unsigned char ndown = 0;
    if (prev == nullptr) {
      chg = gain = ndown = 1;  // no predecessor: be conservative
    } else {
      for (std::size_t q = 0; q < p; ++q) {
        const bool was_up = is_up(prev[q]);
        const bool now_up = is_up(row[q]);
        chg |= static_cast<unsigned char>(was_up != now_up);
        gain |= static_cast<unsigned char>(!was_up && now_up);
        ndown |= static_cast<unsigned char>(row[q] == markov::State::Down &&
                                            prev[q] != markov::State::Down);
      }
    }
    digest_up_changed_[static_cast<std::size_t>(r)] = chg;
    digest_up_gain_[static_cast<std::size_t>(r)] = gain;
    digest_new_down_[static_cast<std::size_t>(r)] = ndown;
    prev = row;
  }
}

void Engine::refresh_states() {
  if (realization_ != nullptr && realization_->frozen() &&
      slot_ >= realization_->frontier()) {
    switch_to_live();  // single remaining consumer: stop recording the tail
  }
  if (realization_ != nullptr) {
    // Replay: expand this one row off the realization into block_'s first
    // row (the window itself is unused until a switch to live).
    realization_->ensure(slot_ + 1);
    realization_->expand_rows(slot_, slot_ + 1, block_.data());
    states_ = std::span(block_.data(), holdings_.size());
    return;
  }
  if (block_pos_ == block_filled_) refill_block();
  states_ = std::span(window_row(slot_), holdings_.size());
  ++block_pos_;
}

void Engine::process_downs() {
  // Digest shortcut: with no processor NEWLY DOWN this slot, every DOWN
  // processor already crashed at its DOWN transition (crashes are idempotent
  // and a DOWN worker's holdings cannot change), and no enrolled worker can
  // be DOWN (a configuration only ever contains workers that were UP after
  // its install slot, so an enrolled DOWN is always a fresh transition).
  if (options_.fast_forward && !new_down_at(slot_)) return;
  // DOWN loses everything, enrolled or not (paper §III-B).
  for (std::size_t q = 0; q < states_.size(); ++q) {
    if (states_[q] == markov::State::Down) holdings_[q].crash();
  }
  if (!config_.empty() && any_enrolled_down()) {
    // Tight coupling: the whole iteration's computation is lost and a new
    // configuration must be selected (paper §III-C).
    ++current_iter_.restarts;
    ++result_.total_restarts;
    clear_config();
  }
}

bool Engine::consult_needed() const {
  // WhileConfigured: the scheduler guarantees "no change" (with no side
  // effects) for as long as the current configuration stays installed, so
  // the consult — view build included — is skipped wholesale. A restart or
  // iteration boundary clears config_ and re-enables consulting.
  return !(options_.fast_forward && !config_.empty() && quiesce_ != nullptr &&
           quiesce_->kind == Quiescence::Kind::WhileConfigured);
}

void Engine::consult_scheduler() {
  build_view();
  ++consults_;
  auto decision = scheduler_.decide(view_);
  quiesce_ = &scheduler_.quiescence();
  horizon_left_ = quiesce_->horizon;
  if (!decision.has_value() || decision->empty()) {
    decision_no_change_ = true;
    return;
  }
  const model::Configuration& cfg = *decision;
  if (cfg == config_) {  // proposing the unchanged config is a no-op
    decision_no_change_ = true;
    return;
  }
  decision_no_change_ = false;

  // Validate the proposal: it is a logic error for a heuristic to enroll a
  // non-UP worker, exceed mu_q, or map a number of tasks != m.
  ++seen_gen_;
  int total = 0;
  for (const auto& a : cfg.assignments()) {
    if (a.proc < 0 || a.proc >= platform_.size()) {
      throw std::logic_error("Engine: configuration names unknown processor");
    }
    if (states_[static_cast<std::size_t>(a.proc)] != markov::State::Up) {
      throw std::logic_error("Engine: configuration enrolls a non-UP worker");
    }
    if (a.tasks < 1 || a.tasks > platform_.proc(a.proc).max_tasks) {
      throw std::logic_error("Engine: task count violates mu_q");
    }
    auto& mark = seen_mark_[static_cast<std::size_t>(a.proc)];
    if (mark == seen_gen_) {
      throw std::logic_error("Engine: duplicate worker in configuration");
    }
    mark = seen_gen_;
    total += a.tasks;
  }
  if (total != app_.num_tasks) {
    throw std::logic_error("Engine: configuration does not map exactly m tasks");
  }
  install(cfg);
}

void Engine::install(const model::Configuration& cfg) {
  const bool had_config = !config_.empty();
  if (had_config) {
    // Voluntary (proactive) switch: any partially completed computation is
    // lost.
    ++current_iter_.reconfigurations;
    ++result_.total_reconfigurations;
  }
  config_ = cfg;
  // A worker not (re-)enrolled in the new configuration loses its task data
  // and any in-flight transfer — "any interrupted communication must be
  // resumed from scratch if the worker ... was removed from the
  // configuration", and a re-enrolled worker "needs to receive task data ...
  // even if Pq had been enrolled at time t' < t but was un-enrolled since
  // then" (§III-C). Only the program survives un-enrollment.
  for (int q = 0; q < platform_.size(); ++q) {
    if (config_.enrolled(q)) continue;
    auto& h = holdings_[static_cast<std::size_t>(q)];
    h.data_messages = 0;
    h.partial_slots = 0;
  }
  compute_total_ = config_.compute_slots(platform_.speeds());
  compute_done_ = 0;

  // Degenerate communication costs complete instantly.
  for (const auto& a : config_.assignments()) {
    auto& h = holdings_[static_cast<std::size_t>(a.proc)];
    if (app_.t_prog == 0) h.has_program = true;
    if (app_.t_data == 0) h.data_messages = std::max(h.data_messages, a.tasks);
  }
  reset_comm_remaining();
}

long Engine::comm_remaining(int q) const {
  const int x = config_.tasks_on(q);
  if (x == 0) return 0;
  const auto& h = holdings_[static_cast<std::size_t>(q)];
  long need = 0;
  if (!h.has_program && app_.t_prog > 0) need += app_.t_prog;
  need += static_cast<long>(std::max(0, x - h.data_messages)) * app_.t_data;
  return std::max(0L, need - h.partial_slots);
}

void Engine::reset_comm_remaining() {
  std::fill(comm_remaining_buf_.begin(), comm_remaining_buf_.end(), 0);
  for (const auto& a : config_.assignments()) {
    comm_remaining_buf_[static_cast<std::size_t>(a.proc)] = comm_remaining(a.proc);
  }
}

bool Engine::comm_phase_done() const {
  for (const auto& a : config_.assignments()) {
    if (comm_remaining_buf_[static_cast<std::size_t>(a.proc)] > 0) return false;
  }
  return true;
}

bool Engine::all_enrolled_up() const {
  for (const auto& a : config_.assignments()) {
    if (states_[static_cast<std::size_t>(a.proc)] != markov::State::Up) return false;
  }
  return true;
}

bool Engine::any_enrolled_down() const {
  for (const auto& a : config_.assignments()) {
    if (states_[static_cast<std::size_t>(a.proc)] == markov::State::Down) return true;
  }
  return false;
}

void Engine::clear_config() {
  for (const auto& a : config_.assignments()) {
    holdings_[static_cast<std::size_t>(a.proc)].unenroll();
  }
  config_ = model::Configuration{};
  compute_total_ = 0;
  compute_done_ = 0;
  std::fill(comm_remaining_buf_.begin(), comm_remaining_buf_.end(), 0);
}

void Engine::serve_communications() {
  // Candidates: enrolled UP workers with transfers pending, in enrollment
  // order; optionally re-ranked by remaining need (ablation policies).
  pending_.clear();
  for (const auto& a : config_.assignments()) {
    const auto q = static_cast<std::size_t>(a.proc);
    if (states_[q] != markov::State::Up) continue;  // RECLAIMED: transfer pauses
    if (comm_remaining_buf_[q] == 0) {
      if (options_.record_trace) {
        actions_[q] = Action::Idle;  // done, waiting for the phase barrier
      }
      continue;
    }
    pending_.push_back(a.proc);
  }
  if (options_.comm_order == CommOrder::FewestFirst) {
    std::stable_sort(pending_.begin(), pending_.end(), [this](int x, int y) {
      return comm_remaining_buf_[static_cast<std::size_t>(x)] <
             comm_remaining_buf_[static_cast<std::size_t>(y)];
    });
  } else if (options_.comm_order == CommOrder::MostFirst) {
    std::stable_sort(pending_.begin(), pending_.end(), [this](int x, int y) {
      return comm_remaining_buf_[static_cast<std::size_t>(x)] >
             comm_remaining_buf_[static_cast<std::size_t>(y)];
    });
  }

  int served = 0;
  message_completed_ = false;
  for (int proc : pending_) {
    if (served >= platform_.ncom()) break;
    const auto q = static_cast<std::size_t>(proc);
    auto& h = holdings_[q];
    const bool program = !h.has_program && app_.t_prog > 0;
    if (options_.record_trace) actions_[q] = program ? Action::Program : Action::Data;
    ++h.partial_slots;
    const long len = program ? app_.t_prog : app_.t_data;
    if (h.partial_slots >= len) {
      h.partial_slots = 0;
      if (program) h.has_program = true;
      else ++h.data_messages;
      message_completed_ = true;
    }
    // One served slot always reduces the worker's remaining need by exactly
    // one, message completion included (the completed message leaves the
    // "needed" sum as its partial credit resets).
    --comm_remaining_buf_[q];
    ++served;
  }
  // Enrolled UP workers that were skipped for bandwidth are idle.
  if (options_.record_trace) {
    for (const auto& a : config_.assignments()) {
      const auto q = static_cast<std::size_t>(a.proc);
      if (states_[q] == markov::State::Up && actions_[q] == Action::None) {
        actions_[q] = Action::Idle;
      }
    }
  }
  if (served > 0) {
    ++current_iter_.comm_slots;
    last_phase_ = Phase::Comm;
  } else {
    // Every pending worker was RECLAIMED: the slot progressed nothing.
    ++current_iter_.stalled_slots;
    last_phase_ = Phase::Stalled;
  }
}

void Engine::advance_computation() {
  if (all_enrolled_up()) {
    if (options_.record_trace) {
      for (const auto& a : config_.assignments()) {
        actions_[static_cast<std::size_t>(a.proc)] = Action::Compute;
      }
    }
    ++compute_done_;
    ++current_iter_.compute_slots;
    last_phase_ = Phase::Compute;
    if (compute_done_ >= compute_total_) {
      complete_iteration(slot_);
      last_phase_ = Phase::Completed;
    }
  } else {
    // At least one enrolled worker is RECLAIMED: everyone suspends.
    ++current_iter_.suspended_slots;
    last_phase_ = Phase::Suspended;
    if (options_.record_trace) {
      for (const auto& a : config_.assignments()) {
        const auto q = static_cast<std::size_t>(a.proc);
        if (states_[q] == markov::State::Up) actions_[q] = Action::Idle;
      }
    }
  }
}

void Engine::complete_iteration(long slot) {
  current_iter_.start_slot = iteration_start_;
  current_iter_.end_slot = slot;
  result_.iterations.push_back(current_iter_);
  current_iter_ = {};
  ++iterations_done_;

  // Global synchronization: task data is per-iteration, the program persists.
  for (auto& h : holdings_) h.next_iteration();
  config_ = model::Configuration{};
  compute_total_ = 0;
  compute_done_ = 0;
  std::fill(comm_remaining_buf_.begin(), comm_remaining_buf_.end(), 0);
  iteration_start_ = slot + 1;

  if (iterations_done_ >= app_.iterations) finished_ = true;
}

void Engine::build_view() {
#ifndef NDEBUG
  // comm_remaining_buf_ is maintained incrementally (install, serve,
  // unenroll, iteration boundary); cross-check it against the from-scratch
  // computation in debug builds.
  for (int q = 0; q < platform_.size(); ++q) {
    assert(comm_remaining_buf_[static_cast<std::size_t>(q)] == comm_remaining(q) &&
           "Engine: incremental comm_remaining out of sync");
  }
#endif
  view_.slot = slot_;
  view_.platform = &platform_;
  view_.app = &app_;
  view_.states = states_;
  view_.holdings = holdings_;
  view_.config = config_.empty() ? nullptr : &config_;
  view_.iteration_elapsed = slot_ - iteration_start_;
  view_.compute_total = compute_total_;
  view_.compute_done = compute_done_;
  view_.comm_remaining = comm_remaining_buf_;
}

void Engine::record_slot() {
  if (!options_.record_trace) return;
  // Build the row in place: no temporary vector per slot.
  auto& row = trace_.emplace_back(states_.size());
  for (std::size_t q = 0; q < states_.size(); ++q) {
    row[q] = Cell{states_[q], actions_[q]};
  }
}

// --------------------------------------------------------------------------
// Event-horizon fast path (DESIGN.md §8-§9). After a normally processed
// slot, bulk-advance the run of upcoming slots whose outcome is already
// determined: the engine-side state machine is advanced arithmetically and
// the scheduler is not consulted, which is sound exactly when the latched
// Quiescence report covers every skipped slot. Each phase's advance is one
// loop over segments:
//
//   1. the stretch end: the segment end, the compute need or the comm
//      finish horizon, clipped at the first scheduler event (scheduler_stop:
//      horizon expiry, any UP-membership change, or a UP gain or watched
//      change) and then at the first enrolled-state change — while every
//      enrolled worker holds its state, the per-slot outcome (all_up /
//      any_down / the served comm set) is frozen;
//   2. the stretch applied arithmetically, newly-DOWN workers crashed in
//      aggregate (crash() is idempotent and a DOWN worker's holdings cannot
//      change until it is processed again);
//   3. the stop slot: an enrolled compute/suspend change short of the
//      scheduler stop and not an enrolled DOWN is reclassified and banked
//      alone; every other stop hands the slot to the per-slot path.
//
// Availability is read through one query surface with two backends,
// picked by mode (never per row): a replay reads the Realization — RLE
// stretches, digest bitsets — and skipped rows are never expanded (a traced
// replay looks up each trace row's states); a live run reads the dense
// window — rows and digest bytes. A segment is the window, or the replayed
// prefix of a frozen realization (else the whole run); at its end the loop
// refills the window or switches to live and carries on. Both backends
// report the same slots for every query, so the stop slots — and hence
// results, traces and telemetry — do not depend on the backend.
// --------------------------------------------------------------------------

const markov::State* Engine::window_row(long slot) const {
  if (slot < block_base_) {  // the row before the window
    assert(slot == block_base_ - 1 && prev_row_valid_);
    return prev_row_.data();
  }
  return block_.data() + static_cast<std::size_t>(slot - block_base_) * holdings_.size();
}

markov::State Engine::state_at(int q, long slot) const {
  if (jumping()) return realization_->state_at(q, slot);
  return window_row(slot)[static_cast<std::size_t>(q)];
}

long Engine::segment_end() {
  if (jumping()) {
    if (!realization_->frozen()) return options_.slot_cap;
    if (slot_ < realization_->frontier()) {
      return std::min(realization_->frontier(), options_.slot_cap);
    }
    switch_to_live();
  }
  if (block_pos_ == block_filled_) refill_block();
  return std::min(block_base_ + block_filled_, options_.slot_cap);
}

long Engine::next_change(long from, long limit) {
  if (jumping()) return realization_->next_change(from, limit);
  for (long s = from; s < limit; ++s) {
    const auto pos = static_cast<std::size_t>(s - block_base_);
    if (digest_up_changed_[pos] | digest_new_down_[pos]) return s;
  }
  return limit;
}

bool Engine::up_changed_at(long slot) const {
  if (jumping()) return realization_->up_changed_at(slot);
  return digest_up_changed_[static_cast<std::size_t>(slot - block_base_)] != 0;
}

bool Engine::up_gain_at(long slot) const {
  if (jumping()) return realization_->up_gain_at(slot);
  return digest_up_gain_[static_cast<std::size_t>(slot - block_base_)] != 0;
}

bool Engine::new_down_at(long slot) const {
  if (jumping()) return realization_->new_down_at(slot);
  return digest_new_down_[static_cast<std::size_t>(slot - block_base_)] != 0;
}

long Engine::enrolled_stable_until(long limit) {
  if (enrolled_buf_.empty() || slot_ >= limit) return limit;
  if (jumping()) return realization_->stable_until(enrolled_buf_, slot_ - 1, limit);
  const markov::State* ref = window_row(slot_ - 1);
  for (long s = slot_; s < limit; ++s) {
    const markov::State* row = window_row(s);
    for (int q : enrolled_buf_) {
      const auto qi = static_cast<std::size_t>(q);
      if (row[qi] != ref[qi]) return s;
    }
  }
  return limit;
}

long Engine::scheduler_stop(Quiescence::Kind kind, long limit) {
  if (kind == Quiescence::Kind::WhileConfigured) return limit;
  if (horizon_left_ < limit - slot_) limit = slot_ + horizon_left_;  // no overflow
  for (long s = slot_; (s = next_change(s, limit)) < limit; ++s) {
    if (!up_changed_at(s)) continue;  // a fresh DOWN of a non-UP worker
    if (kind == Quiescence::Kind::UntilUpSetChanges || up_gain_at(s)) return s;
    if (watched_membership_changed(s)) return s;
  }
  return limit;
}

bool Engine::watched_membership_changed(long slot) const {
  for (int q : quiesce_->watched) {
    if (is_up(state_at(q, slot - 1)) != is_up(state_at(q, slot))) return true;
  }
  return false;
}

void Engine::crash_downs(long begin, long end) {
  if (!jumping()) {
    for (long s = begin; s < end; ++s) {
      if (new_down_at(s)) {
        const markov::State* row = window_row(s);
        for (std::size_t q = 0; q < holdings_.size(); ++q) {
          if (row[q] == markov::State::Down) holdings_[q].crash();
        }
      }
    }
    return;
  }
  // Replay: a worker DOWN anywhere in the range is crashed once. A range
  // with no fresh DOWN needs no interval walk, and workers with empty
  // holdings are skipped because crashing them is a no-op (no enrolled
  // worker is ever DOWN inside a stretch).
  if (begin >= end || !realization_->any_new_down(begin, end - 1)) return;
  for (std::size_t q = 0; q < holdings_.size(); ++q) {
    const model::Holdings& h = holdings_[q];
    if (!h.has_program && h.data_messages == 0 && h.partial_slots == 0) continue;
    if (realization_->down_overlaps(static_cast<int>(q), begin, end - 1)) {
      holdings_[q].crash();
    }
  }
}

void Engine::consume(long end, bool compute) {
  crash_downs(slot_, end);
  if (options_.record_trace) {
    for (long s = slot_; s < end; ++s) {
      auto& tr = trace_.emplace_back(holdings_.size());
      for (std::size_t q = 0; q < holdings_.size(); ++q) {
        tr[q] = Cell{state_at(static_cast<int>(q), s), Action::None};
      }
      for (const auto& a : config_.assignments()) {
        const auto q = static_cast<std::size_t>(a.proc);
        if (compute) {
          tr[q].action = Action::Compute;
        } else if (is_up(tr[q].state)) {
          tr[q].action = Action::Idle;  // suspended: UP workers wait
        }
      }
    }
  }
  horizon_left_ -= end - slot_;
  slot_ = end;
  if (!jumping()) block_pos_ = slot_ - block_base_;
}

void Engine::fast_forward() {
  if (quiesce_ == nullptr) return;
  const Quiescence::Kind kind = quiesce_->kind;
  if (kind == Quiescence::Kind::EverySlot) return;
  const long before = slot_;
  const bool jumped = jumping();

  if (!config_.empty()) {
    if (last_phase_ == Phase::Comm || last_phase_ == Phase::Stalled) {
      // Comm-phase bulk advance: under enrollment order the served set is a
      // pure function of (enrolled states, which transfers are unfinished),
      // so a run of slots with the same enrolled states and no transfer
      // finishing can be applied arithmetically. Tracing needs per-slot
      // action rows, and the re-ranked comm orders re-sort by remaining
      // need every slot: both fall back to per-slot.
      if (options_.comm_order != CommOrder::Enrollment || options_.record_trace) return;
      // UntilEvent covers mid-message progress and stalls: only a completed
      // message changes a build input. The consult ran at this very slot,
      // so it covers the next one only if this slot completed no message.
      if (kind != Quiescence::Kind::WhileConfigured &&
          (kind != Quiescence::Kind::UntilEvent || !decision_no_change_ ||
           message_completed_)) {
        return;
      }
      advance_comm(kind);
      note_bulk_advance(telem_.bulk_runs_comm, telem_.bulk_slots_comm, before, jumped);
    } else {
      // Compute-phase bulk advance. Only valid when the just-processed slot
      // already was a compute/suspended slot: then the decision inputs
      // (holdings, comm progress) are unchanged since the consult. A comm
      // slot changes them, a completion slot cleared config_.
      if (last_phase_ != Phase::Compute && last_phase_ != Phase::Suspended) return;
      if (kind != Quiescence::Kind::WhileConfigured && !decision_no_change_) return;
      advance_configured(kind);
      note_bulk_advance(telem_.bulk_runs_configured, telem_.bulk_slots_configured,
                        before, jumped);
    }
  } else {
    // Idle bulk advance: the scheduler just declined to build (no UP
    // capacity). WhileConfigured says nothing about the no-config case.
    if (last_phase_ != Phase::Idle || !decision_no_change_) return;
    if (kind == Quiescence::Kind::WhileConfigured) return;
    advance_idle(kind);
    note_bulk_advance(telem_.bulk_runs_idle, telem_.bulk_slots_idle, before, jumped);
  }
}

void Engine::note_bulk_advance(long& runs, long& slots, long before, bool jumped) {
  const long advanced = slot_ - before;
  if (advanced <= 0) return;
  ++runs;
  slots += advanced;
  if (jumped) ++telem_.replay_jumps;
  telem_.bulk_advance_slots.observe(static_cast<std::uint64_t>(advanced));
}

void Engine::load_enrolled() {
  enrolled_buf_.clear();
  for (const auto& a : config_.assignments()) enrolled_buf_.push_back(a.proc);
}

bool Engine::bank_configured(long end, bool compute) {
  const long run = end - slot_;
  if (compute) {
    compute_done_ += run;
    current_iter_.compute_slots += run;
  } else {
    current_iter_.suspended_slots += run;
  }
  consume(end, compute);
  if (!compute || compute_done_ < compute_total_) return false;
  complete_iteration(slot_ - 1);
  return true;
}

void Engine::advance_configured(Quiescence::Kind kind) {
  load_enrolled();
  bool compute = last_phase_ == Phase::Compute;
  while (slot_ < options_.slot_cap) {
    const long seg = segment_end();
    long limit = seg;
    const long need = compute_total_ - compute_done_;
    if (compute && need < limit - slot_) limit = slot_ + need;
    const long stop = scheduler_stop(kind, limit);
    const long change = enrolled_stable_until(stop);
    if (bank_configured(change, compute)) return;
    if (change == stop) {
      if (stop < seg) return;  // a scheduler event (a need-capped stretch
      continue;                // completed above); else the segment's end
    }
    // An enrolled worker changed state at `change`, a slot the latched
    // answer still covers. Unless the change restarts the iteration (an
    // enrolled DOWN), reclassify and bank it alone, exactly as the per-slot
    // path would, and carry on with the new classification.
    compute = true;
    for (int q : enrolled_buf_) {
      const markov::State s = state_at(q, change);
      if (s == markov::State::Down) return;
      if (s != markov::State::Up) compute = false;
    }
    if (bank_configured(change + 1, compute)) return;
  }
}

void Engine::apply_comm_progress(std::size_t q, long slots) {
  // Replays `slots` consecutive served slots for one worker in O(messages
  // completed): the per-slot reference is ++partial_slots, complete the
  // message when partial_slots reaches its length, and one remaining slot
  // retired per served slot.
  auto& h = holdings_[q];
  comm_remaining_buf_[q] -= slots;
  while (slots > 0) {
    const bool program = !h.has_program && app_.t_prog > 0;
    const long len = program ? app_.t_prog : app_.t_data;
    const long need = len - h.partial_slots;
    if (slots >= need) {
      h.partial_slots = 0;
      if (program) h.has_program = true;
      else ++h.data_messages;
      slots -= need;
    } else {
      h.partial_slots += slots;
      slots = 0;
    }
  }
}

void Engine::advance_comm(Quiescence::Kind kind) {
  // The just-processed slot may have finished the last transfer; the next
  // slot then belongs to the compute phase, not to a comm run.
  if (comm_phase_done()) return;
  load_enrolled();
  // Who gets served while the enrolled states hold (first ncom pending
  // workers in enrollment order), and for how many slots: until some served
  // transfer finishes (the served set then changes), an enrolled state
  // changes, or the cap. A latched (UntilEvent) answer also ends with the
  // first completed message, which changes a build input word; the
  // completing slot itself is still covered.
  const bool latched = kind != Quiescence::Kind::WhileConfigured;
  pending_.clear();
  long finish_horizon = std::numeric_limits<long>::max();
  for (int proc : enrolled_buf_) {
    const auto q = static_cast<std::size_t>(proc);
    if (states_[q] != markov::State::Up || comm_remaining_buf_[q] == 0) continue;
    if (static_cast<int>(pending_.size()) == platform_.ncom()) break;
    pending_.push_back(proc);
    long until = comm_remaining_buf_[q];
    if (latched) {
      const auto& h = holdings_[q];
      const bool program = !h.has_program && app_.t_prog > 0;
      until = (program ? app_.t_prog : app_.t_data) - h.partial_slots;
    }
    finish_horizon = std::min(finish_horizon, until);
  }

  const long start = slot_;
  const long end = finish_horizon < options_.slot_cap - slot_ ? slot_ + finish_horizon
                                                              : options_.slot_cap;
  // The run ends for good at its first stop (the served set or the answer
  // may change there); only a segment boundary is crossed.
  while (slot_ < end) {
    const long seg = std::min(segment_end(), end);
    const long stop = enrolled_stable_until(scheduler_stop(kind, seg));
    consume(stop, false);
    if (stop < seg) break;
  }
  const long run = slot_ - start;
  if (run == 0) return;
  if (pending_.empty()) {
    // Every unfinished transfer is paused on a RECLAIMED worker.
    current_iter_.stalled_slots += run;
  } else {
    current_iter_.comm_slots += run;
    for (int proc : pending_) apply_comm_progress(static_cast<std::size_t>(proc), run);
  }
}

void Engine::advance_idle(Quiescence::Kind kind) {
  // Idle stops are all scheduler events: a worker joining UP anywhere (or
  // any UP-set change, or a watched change), or the horizon.
  while (slot_ < options_.slot_cap) {
    const long seg = segment_end();
    const long stop = scheduler_stop(kind, seg);
    result_.idle_slots += stop - slot_;
    consume(stop, false);
    if (stop < seg) return;
  }
}

void Engine::switch_to_live() {
  // The frozen realization's embedded source stands exactly at the
  // frontier (materialization consumes it through fill_block and nothing
  // else touches it), and slot_ has reached that frontier: from here the
  // run IS the ordinary live engine on a continued stream — same rows,
  // same digests, same loops — so recording the remaining slots (which no
  // other run will ever replay) is skipped entirely.
  assert(realization_->frontier() == slot_);
  assert(realization_->source().position() == slot_);
  if (options_.fast_forward) {
    if (slot_ > 0) {
      realization_->expand_rows(slot_ - 1, slot_, prev_row_.data());
      prev_row_valid_ = true;
    } else {
      prev_row_valid_ = false;
    }
  }
  availability_ = &realization_->source();
  realization_ = nullptr;
  block_pos_ = 0;
  block_filled_ = 0;
}

}  // namespace tcgrid::sim
