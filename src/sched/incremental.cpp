#include "sched/incremental.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

namespace tcgrid::sched {

namespace {

/// Remaining transfer slots worker q would need to run x tasks, given what
/// it already holds. Candidates are scored as if placed fresh: in-flight
/// partial transfers are not credited (they are lost on reconfiguration).
long fresh_need(const sim::SchedulerView& view, int q, int x) {
  const auto& h = view.holdings[static_cast<std::size_t>(q)];
  const auto& app = *view.app;
  long need = 0;
  if (!h.has_program && app.t_prog > 0) need += app.t_prog;
  need += static_cast<long>(std::max(0, x - h.data_messages)) * app.t_data;
  return need;
}

/// Build-input word of worker q (see view_signature).
std::uint64_t input_word(const sim::SchedulerView& view, std::size_t q) {
  if (view.states[q] != markov::State::Up) return 0;
  const auto& h = view.holdings[q];
  return 1 | (h.has_program ? 2 : 0) |
         static_cast<std::uint64_t>(static_cast<std::uint32_t>(h.data_messages)) << 2;
}

/// Two independent FNV-1a lanes over alternating workers' input words,
/// combined at the end: the one-lane chain serializes a multiply per worker
/// (this hash runs once per proactive consult), while two lanes halve that
/// latency. Any deterministic 64-bit hash is sound here — the signature is
/// only a memo key.
template <class Word>
std::uint64_t hash_words(std::size_t n, Word word) {
  std::uint64_t h0 = 1469598103934665603ULL;
  std::uint64_t h1 = 0x9e3779b97f4a7c15ULL;
  std::size_t q = 0;
  for (; q + 1 < n; q += 2) {
    h0 = (h0 ^ word(q)) * 1099511628211ULL;
    h1 = (h1 ^ word(q + 1)) * 1099511628211ULL;
  }
  if (q < n) h0 = (h0 ^ word(q)) * 1099511628211ULL;
  return h0 ^ (h1 * 0x2545f4914f6cdd1dULL);
}

constexpr double kIneligible = -std::numeric_limits<double>::infinity();

}  // namespace

std::uint64_t view_signature(const sim::SchedulerView& view) {
  return hash_words(view.states.size(),
                    [&view](std::size_t q) { return input_word(view, q); });
}

const BuiltConfiguration& IncrementalBuilder::build_memoized(
    const sim::SchedulerView& view) const {
  if (rule_ == Rule::IY) {
    uncached_ = build_fresh(view);
    return uncached_;
  }
  // One pass over the view's input words feeds both the memo key and, on a
  // miss, the delta rebuild's changed-worker diff.
  const std::size_t n = view.states.size();
  words_now_.resize(n);
  for (std::size_t q = 0; q < n; ++q) words_now_[q] = input_word(view, q);
  if (!memo_) {
    uncached_ = build_fresh(view);
    return uncached_;
  }
  // Fold the rule into the key: rules share one estimator (and memo) within
  // a sweep scenario.
  std::uint64_t key = hash_words(n, [this](std::size_t q) { return words_now_[q]; });
  key ^= static_cast<std::uint64_t>(rule_) + 0x9e3779b97f4a7c15ULL;
  key *= 1099511628211ULL;
  auto& memo = estimator_->build_memo();
  if (MemoizedBuild* hit = memo.find(key)) return *hit;
  // Build BEFORE the key becomes visible: an exception out of build_fresh
  // must not leave an empty configuration memoized as a valid hit.
  MemoizedBuild built = build_fresh(view);
  MemoizedBuild& slot = memo.insert(key);
  slot = std::move(built);
  return slot;
}

// Round-incremental candidate evaluation. The reference semantics — for each
// of the m placement rounds, score every eligible worker q by
// Estimator::evaluate over the partial configuration plus one task on q —
// rebuilt the O(k) needs/set vectors and re-ran the O(k) comm-time max,
// survival product and set-key fold PER CANDIDATE, making each round O(p*k)
// even though every candidate shares the same k-member base. The round now
// precomputes the shared parts once (begin_round) and derives each
// candidate in O(1) (evaluate), bit-identically to the reference evaluate()
// calls:
//   * e_comm: max() over doubles is order-free and exact, so prefix/suffix
//     maxes over the enrolled order answer "max excluding position i" for
//     enrolled candidates and the full prefix max answers un-enrolled ones;
//     the integer slot total is exact in any order.
//   * p_comm: the survival product IS order-sensitive FP, so the shared base
//     product over the enrolled order is accumulated in enrollment order —
//     exactly evaluate()'s in-set factor order — lazily once per distinct
//     comm horizon t seen in the round, and an un-enrolled candidate appends
//     its own factor LAST, matching its position in the reference set. An
//     enrolled candidate's own factor is p_no_down(q, t), independent of its
//     load, so its product is the base product unchanged.
//   * set_stats: the candidate key is base_mask | 1 << q (O(1) instead of
//     re-folding the set), answered by the inline front-cache probe; misses
//     resolve through the store exactly as before.
//   * un-enrolled workers with identical (chain, speed, holdings) produce
//     bitwise-identical estimates and scores; the argmax keeps the first on
//     ties (strictly-greater test), so later clones are skipped outright.
void IncrementalBuilder::begin_round(const sim::SchedulerView& view) const {
  // Base arrays over the enrolled order: per-member fresh needs and comm
  // times at the current loads, their prefix/suffix maxes, and the slot
  // total. Members with zero need contribute 0.0 to the maxes, which the
  // reference max — started at 0.0 — also ignores.
  const std::size_t k = order_.size();
  base_slots_.resize(k);
  base_e_.resize(k);
  pre_max_.resize(k + 1);
  suf_max_.resize(k + 1);
  total_base_ = 0;
  pre_max_[0] = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const int r = order_[i];
    const long slots = fresh_need(view, r, loads_[static_cast<std::size_t>(r)]);
    base_slots_[i] = slots;
    total_base_ += slots;
    base_e_[i] = slots > 0 ? estimator_->proc_stats(r).expected_time(slots) : 0.0;
    pre_max_[i + 1] = std::max(pre_max_[i], base_e_[i]);
  }
  suf_max_[k] = 0.0;
  for (std::size_t i = k; i-- > 0;) {
    suf_max_[i] = std::max(suf_max_[i + 1], base_e_[i]);
  }
  ts_.clear();        // distinct comm horizons of this round...
  base_prod_.clear(); // ...and the base survival product at each
}

inline IterationEstimate IncrementalBuilder::evaluate(const sim::SchedulerView& view,
                                                      int q) const {
  const auto& plat = *view.platform;
  const auto qi = static_cast<std::size_t>(q);
  const std::size_t k = order_.size();
  const bool in_order = loads_[qi] > 0;

  // Candidate: one more task on q.
  const int xq = loads_[qi] + 1;
  const long wq = plat.proc(q).speed;
  const long w_cand = std::max(w_current_, static_cast<long>(xq) * wq);
  const long slots_q = fresh_need(view, q, xq);
  const double e_q =
      slots_q > 0 ? estimator_->proc_stats(q).expected_time(slots_q) : 0.0;

  double e_comm;
  long total = total_base_ + slots_q;
  std::size_t nneeds = k;
  if (in_order) {
    const auto i = static_cast<std::size_t>(pos_[qi]);
    e_comm = std::max(std::max(pre_max_[i], suf_max_[i + 1]), e_q);
    total -= base_slots_[i];
  } else {
    e_comm = std::max(pre_max_[k], e_q);
    nneeds = k + 1;
  }
  if (static_cast<int>(nneeds) > plat.ncom() && total > 0) {
    e_comm = std::max(e_comm, static_cast<double>(total) /
                                  static_cast<double>(plat.ncom()));
  }

  double p_comm = 1.0;
  if (e_comm > 0.0) {
    const long t = static_cast<long>(std::ceil(e_comm));
    if (k > 0) {
      std::size_t j = 0;
      while (j < ts_.size() && ts_[j] != t) ++j;
      if (j == ts_.size()) {
        double base = 1.0;
        for (int r : order_) base *= estimator_->p_no_down(r, t);
        ts_.push_back(t);
        base_prod_.push_back(base);
      }
      p_comm = base_prod_[j];
    }
    if (!in_order) p_comm *= estimator_->p_no_down(q, t);
  }

  const std::uint64_t key = base_mask_ | (std::uint64_t{1} << q);
  const markov::CoupledStats* st = estimator_->set_stats_cached(key);
  if (st == nullptr) {
    // Front miss (rare after warm-up): resolve through the store.
    cand_set_.clear();
    for (int r : order_) cand_set_.push_back(r);
    if (!in_order) cand_set_.push_back(q);
    st = &estimator_->set_stats_masked(key, cand_set_);
  }

  IterationEstimate est;
  est.p_success = p_comm * st->success_prob(w_cand);
  est.e_time = e_comm + st->expected_time(w_cand);
  return est;
}

void IncrementalBuilder::place(const sim::SchedulerView& view, int q) const {
  const auto qi = static_cast<std::size_t>(q);
  if (loads_[qi] == 0) {
    pos_[qi] = static_cast<int>(order_.size());
    order_.push_back(q);
    base_mask_ |= std::uint64_t{1} << q;
  }
  ++loads_[qi];
  w_current_ = std::max(w_current_,
                        static_cast<long>(loads_[qi]) * view.platform->proc(q).speed);
}

// Delta rebuild (DESIGN.md §16). A candidate's score is a pure function of
// the round's base (loads_, order_, w_current_, base_mask_), its own input
// word, the estimator and the rule. While every earlier winner matches the
// trace and lies outside the changed set D, the base is the traced one, so
// the traced row is exact for every worker outside D: the round rescores D
// only and re-picks the winner under the reference rule (highest score,
// lowest index on ties; a NaN never wins). The first round whose winner
// differs or lies in D changes the next round's base; from there on the
// full loop runs and re-records the trace.
BuiltConfiguration IncrementalBuilder::build_fresh(const sim::SchedulerView& view) const {
  const int p = view.platform->size();
  const int m = view.app->num_tasks;
  const auto np = static_cast<std::size_t>(p);
  // The IY rule reads iteration_elapsed, which no input word covers.
  const bool traced = rule_ != Rule::IY && p > 0;
  const int trace_rounds =
      traced ? static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(m),
                                                      kTraceCells / np))
             : 0;

  loads_.assign(np, 0);
  order_.clear();
  pos_.assign(np, -1);
  w_current_ = 0;
  base_mask_ = 0;
  IterationEstimate chosen_est{};

  const int replayable =
      traced && words_.size() == np ? std::min(rounds_, trace_rounds) : 0;
  std::uint64_t changed = 0;  // D, as a worker bitmask (p <= 64)
  if (replayable > 0) {
    for (std::size_t q = 0; q < np; ++q) {
      if (words_now_[q] != words_[q]) changed |= std::uint64_t{1} << q;
    }
  }
  if (traced) words_.swap(words_now_);
  rounds_ = 0;  // until this build completes, the trace is not valid

  int task = 0;
  for (; task < replayable; ++task) {
    Cell* row = &cells_[static_cast<std::size_t>(task) * np];
    bool based = false;  // begin_round() only once a D worker is eligible
    for (std::uint64_t d = changed; d != 0; d &= d - 1) {
      const int q = std::countr_zero(d);
      if (eligible(view, q)) {
        if (!based) {
          begin_round(view);
          based = true;
        }
        const IterationEstimate est = evaluate(view, q);
        row[q] = {rule_score(rule_, est, view.iteration_elapsed), est};
      } else {
        row[q] = {kIneligible, {}};
      }
    }
    int best = -1;
    double best_score = kIneligible;
    for (int q = 0; q < p; ++q) {
      if (row[q].score > best_score) {
        best_score = row[q].score;
        best = q;
      }
    }
    const int prev = winners_[static_cast<std::size_t>(task)];
    winners_[static_cast<std::size_t>(task)] = best;
    if (best < 0) {
      rounds_ = task + 1;
      return {};
    }
    chosen_est = row[best].est;
    place(view, best);
    if (best != prev || (changed >> best & 1) != 0) {
      ++task;
      break;
    }
  }

  if (traced) {
    cells_.resize(static_cast<std::size_t>(trace_rounds) * np);
    winners_.resize(static_cast<std::size_t>(trace_rounds));
  }
  for (; task < m; ++task) {
    Cell* row =
        task < trace_rounds ? &cells_[static_cast<std::size_t>(task) * np] : nullptr;
    begin_round(view);
    classes_.clear();
    class_rep_.clear();

    int best = -1;
    double best_score = kIneligible;
    IterationEstimate best_est{};

    for (int q = 0; q < p; ++q) {
      const auto qi = static_cast<std::size_t>(q);
      if (!eligible(view, q)) {
        if (row != nullptr) row[q] = {kIneligible, {}};
        continue;
      }
      if (loads_[qi] == 0) {
        const CandClass cls{estimator_->chain_id(q), view.platform->proc(q).speed,
                            view.holdings[qi].has_program,
                            view.holdings[qi].data_messages};
        std::size_t c = 0;
        while (c < classes_.size() && !(classes_[c] == cls)) ++c;
        if (c < classes_.size()) {
          // Bitwise tie with an earlier candidate: cannot win.
          if (row != nullptr) row[q] = row[class_rep_[c]];
          continue;
        }
        classes_.push_back(cls);
        class_rep_.push_back(q);
      }

      const IterationEstimate est = evaluate(view, q);
      const double score = rule_score(rule_, est, view.iteration_elapsed);
      if (row != nullptr) row[q] = {score, est};
      if (score > best_score) {
        best_score = score;
        best = q;
        best_est = est;
      }
    }

    if (row != nullptr) winners_[static_cast<std::size_t>(task)] = best;
    if (best < 0) {  // not enough UP capacity for all m tasks
      rounds_ = std::min(task + 1, trace_rounds);
      return {};
    }
    place(view, best);
    chosen_est = best_est;
  }
  rounds_ = trace_rounds;

  std::vector<model::Assignment> assignments;
  assignments.reserve(order_.size());
  for (int q : order_) assignments.push_back({q, loads_[static_cast<std::size_t>(q)]});
  return {model::Configuration(std::move(assignments)), chosen_est};
}

IterationEstimate IncrementalBuilder::estimate_fresh(
    const sim::SchedulerView& view, const model::Configuration& cfg) const {
  std::vector<int> set;
  std::vector<Estimator::CommNeed> needs;
  set.reserve(cfg.size());
  needs.reserve(cfg.size());
  for (const auto& a : cfg.assignments()) {
    set.push_back(a.proc);
    needs.push_back({a.proc, fresh_need(view, a.proc, a.tasks)});
  }
  return estimator_->evaluate(needs, set, cfg.compute_slots(view.platform->speeds()));
}

}  // namespace tcgrid::sched
