// Estimator: the paper's §V quantities packaged for scheduling decisions.
//
// Given a candidate set of enrolled workers with per-worker remaining
// communication needs and a remaining coupled workload W, produces the
// probability that the iteration completes with no enrolled worker going
// DOWN, and the (approximate) expected number of slots it takes:
//
//   computation (§V-A):  P_comp = P+(S)^(W-1)
//                        E_comp = (1 + (W-1) E_c) / P+(S)^(W-1)
//   communication (§V-B): E_comm = max_q E^{(q)}(n_q)            if |S| <= ncom
//                         E_comm = max(that,  sum n_q / ncom)    otherwise
//                         P_comm = prod_q P_ND^{(q)}(E_comm)
//   iteration:           P = P_comm * P_comp,  E = E_comm + E_comp
//
// The estimator is a thin per-scenario VIEW over a markov::ChainStatsStore
// (DESIGN.md §10): at construction every processor's UR sub-matrix is
// interned by content, and all series math — per-chain coupled statistics,
// survival tables, set-level coupled statistics keyed by the multiset of
// chain ids — resolves through the store, computed once per distinct chain
// (or multiset) no matter how many processors, estimators or threads share
// it. api::Session passes its session-shared store to share across scenario
// cells and pool workers; omit it and the estimator owns a private store —
// the reference the shared store is tested against, bit-identical by
// construction.
//
// Set-level statistics are additionally front-cached per view by membership
// bitmask (the platform is fixed per run), so the incremental heuristics'
// candidate evaluations (up to m*p per cold build, only the changed workers'
// per round of a delta rebuild) never touch a lock after warm-up. Instances
// are NOT thread-safe; use one per run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "markov/chain_stats.hpp"
#include "markov/series.hpp"
#include "model/application.hpp"
#include "model/configuration.hpp"
#include "platform/platform.hpp"

namespace tcgrid::sched {

namespace detail {
/// Finalizer of splitmix64: full-avalanche mixing of cache keys. In the
/// header so the inline front-cache fast paths and the out-of-line cache
/// internals hash identically.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// Open-addressed map from 64-bit keys to default-constructed values: the
/// estimator's set front cache and build memo. Both sit on hot paths (every
/// candidate evaluation, every proactive consult) where std::unordered_map's
/// bucket chasing was measurable; linear probing over a power-of-two table
/// of (key, slot) pairs is 2-3x cheaper per hit. The table grows at
/// kLoadNum/kLoadDen load. Values live in stable kChunk-sized chunks, so
/// references survive growth, and evict() retires them for one epoch
/// instead of freeing them: a reference handed out before an eviction
/// keeps reading its (unchanged) value until the NEXT eviction — the fix
/// for the historical dangling-reference hazard of an eager clear()
/// (DESIGN.md §10). Not thread-safe.
template <class Value, std::size_t kChunk, std::size_t kLoadNum, std::size_t kLoadDen>
class ChunkedTable {
 public:
  /// The value for `key`, or nullptr. Never inserts or evicts. Inline: the
  /// candidate loop and the consult path probe here.
  [[nodiscard]] Value* find(std::uint64_t key) const noexcept {
    if (table_.empty()) return nullptr;
    const std::size_t mask = table_.size() - 1;
    std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
    while (table_[i].slot >= 0 && table_[i].key != key) i = (i + 1) & mask;
    if (table_[i].slot < 0) return nullptr;
    const auto slot = static_cast<std::size_t>(table_[i].slot);
    return &chunks_[slot / kChunk][slot % kChunk];
  }
  /// The value for `key`, default-constructing it (and setting `fresh`) on
  /// first sight.
  Value& lookup(std::uint64_t key, bool& fresh);
  /// Insert a slot for `key` (which must be absent) and return it. Split
  /// from find() so callers can run a (throwing) computation BEFORE the key
  /// becomes visible.
  Value& insert(std::uint64_t key);
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Cap-triggered eviction with epoch retirement (see above).
  void evict();

 private:
  void grow();
  struct Entry {
    std::uint64_t key = 0;
    std::int32_t slot = -1;  // -1 = empty
  };
  std::vector<Entry> table_;  // power-of-two capacity
  std::vector<std::unique_ptr<Value[]>> chunks_;
  std::vector<std::unique_ptr<Value[]>> retired_;  // previous epoch
  std::size_t size_ = 0;
};
}  // namespace detail

/// Probability of success and expected duration of (the remainder of) an
/// iteration on a candidate configuration.
struct IterationEstimate {
  double p_success = 1.0;
  double e_time = 0.0;
};

/// One memoized incremental build (see IncrementalBuilder): the chosen
/// configuration and its full-iteration estimate.
struct MemoizedBuild {
  model::Configuration config;
  IterationEstimate estimate;
};

class Estimator {
 public:
  /// eps: truncation precision of the Theorem 5.1 series. `store`: the
  /// chain-statistics store to resolve through; nullptr (the default) gives
  /// the estimator a private store. A shared store's eps must equal `eps`
  /// (throws std::invalid_argument otherwise — every stored quantity
  /// depends on the truncation precision).
  Estimator(const platform::Platform& platform, const model::Application& app,
            double eps = 1e-9,
            std::shared_ptr<markov::ChainStatsStore> store = nullptr);

  /// Remaining communication need of one enrolled worker.
  struct CommNeed {
    int proc = -1;
    long slots = 0;  ///< n_q: remaining transfer slots (program + data)
  };

  /// Full §V estimate: communication for `needs`, then W coupled compute
  /// slots on `set`. `needs` must cover exactly the workers of `set`
  /// (zero-slot entries allowed). `w` is the *remaining* workload.
  [[nodiscard]] IterationEstimate evaluate(std::span<const CommNeed> needs,
                                           std::span<const int> set, long w) const;

  /// Coupled-computation statistics of a worker set. Front-cached per view
  /// by membership bitmask; resolved through the store by the multiset of
  /// chain ids on a front miss. The reference stays valid until the SECOND
  /// cap-triggered eviction after it was returned (epoch retirement, see
  /// detail::ChunkedTable) — in practice, for any realistic hold.
  [[nodiscard]] const markov::CoupledStats& set_stats(std::span<const int> set) const;

  /// set_stats with the membership bitmask precomputed by the caller. The
  /// incremental builder derives each candidate key in O(1) from its round's
  /// base mask (`base | 1 << q`) instead of re-folding the set per
  /// candidate; `set` is only read on a front-cache miss. `key` must be the
  /// bitmask of `set`.
  [[nodiscard]] const markov::CoupledStats& set_stats_masked(
      std::uint64_t key, std::span<const int> set) const;

  /// Scalar front-cache probe by precomputed bitmask key: the cached entry
  /// or nullptr (no insertion). Inline fast path for the candidate loop.
  [[nodiscard]] const markov::CoupledStats* set_stats_cached(
      std::uint64_t key) const noexcept {
    return set_cache_.find(key);
  }

  /// Single-worker statistics (used for per-worker communication times).
  /// A per-view copy of the store's per-chain quad — the heavy series math
  /// ran once per DISTINCT chain in the store; the copy exists so this
  /// view's lazily grown w-memo stays private (and the lookup stays a
  /// direct vector index: this sits under every §V-B evaluation).
  [[nodiscard]] const markov::CoupledStats& proc_stats(int q) const {
    return per_proc_[static_cast<std::size_t>(q)];
  }

  /// P_ND^{(q)}(t): probability that q (UP now) avoids DOWN for t slots.
  /// Table-hit fast path inline: this sits under every §V-B evaluation
  /// (two calls per evaluate, tens of millions per sweep), where the
  /// out-of-line call itself was measurable. The table is the chain's
  /// shared store table, read lock-free at the exact depth of the old
  /// private flat vector (published-length acquire + pointer + index); the
  /// terminal exact-zero answer is also inline and lock-free, because once
  /// the table ends in 0.0 it is complete forever. Only growth goes out of
  /// line (per-chain append mutex).
  [[nodiscard]] double p_no_down(int q, long t) const {
    if (t <= 0) return 1.0;
    markov::ChainSurvival& s = *surv_of_[static_cast<std::size_t>(q)];
    const long n = s.published();
    const double* flat = s.flat();
    if (t < n) return flat[t];
    if (n > 0 && flat[n - 1] == 0.0) return 0.0;
    return s.grow_to(t);
  }

  /// Expected communication-phase duration alone (paper §V-B).
  [[nodiscard]] double expected_comm_time(std::span<const CommNeed> needs) const;

  /// Whether evaluate(needs', set, w) is at least as good as
  /// evaluate(needs, set, w) — p_success no lower, e_time no higher — for
  /// every needs' reached from `needs` by lowering entries. True when each
  /// worker's expected_time table is non-decreasing through its need and
  /// each survival table is non-increasing through the depth evaluate()
  /// reads, judged from the monotone prefixes the tables record (exact,
  /// no tolerance). Call it after evaluate(needs, set, w), which grows the
  /// tables this reads. The proactive scheduler's comm-phase quiescence
  /// rests on it (DESIGN.md §8).
  [[nodiscard]] bool comm_progress_monotone(std::span<const CommNeed> needs,
                                            std::span<const int> set) const;

  [[nodiscard]] double eps() const noexcept { return eps_; }
  [[nodiscard]] const platform::Platform& platform() const noexcept { return platform_; }
  [[nodiscard]] const model::Application& app() const noexcept { return app_; }

  /// Canonical id of processor q's availability chain in the view's store.
  [[nodiscard]] markov::ChainId chain_id(int q) const {
    return chain_of_[static_cast<std::size_t>(q)];
  }

  /// Number of distinct worker sets front-cached so far (observability/tests).
  [[nodiscard]] std::size_t cached_sets() const noexcept { return set_cache_.size(); }

  /// Test hook: lower the eviction caps of the set front cache and the build
  /// memo so epoch retirement is exercisable without 4M insertions. Caps are
  /// clamped to >= 1: a zero cap would request eviction of an empty cache,
  /// which the eviction path (correctly) asserts against.
  void set_eviction_caps_for_test(std::size_t sets, std::size_t builds) const noexcept {
    set_cap_ = std::max<std::size_t>(1, sets);
    build_cap_ = std::max<std::size_t>(1, builds);
  }

  /// Shared memo of incremental builds, keyed by (rule, input-signature) —
  /// see IncrementalBuilder::build. It lives here, not in the per-trial
  /// schedulers, because the estimator is the one object a sweep shares
  /// across all trials and heuristics of a scenario: restarts re-enter the
  /// same (UP set, holdings) signatures over and over across trials, and a
  /// build is a pure function of the signed inputs, so a memo hit returns
  /// exactly what a rebuild would. A miss is a delta rebuild against the
  /// builder's previous build (DESIGN.md §16): it usually rescores only the
  /// workers whose inputs changed, not all m*p candidates. Callers probe
  /// with find() and run the (throwing) build BEFORE insert() makes the key
  /// visible: a lookup-then-build API would memoize an empty configuration
  /// if the build threw mid-sweep. 3/4 max load: the memo reaches hundreds
  /// of thousands of entries, where the probe table's cache footprint costs
  /// more than the longer chains.
  using BuildMemo = detail::ChunkedTable<MemoizedBuild, 64, 3, 4>;

  [[nodiscard]] BuildMemo& build_memo() const {
    if (build_memo_.size() >= build_cap_) build_memo_.evict();
    return build_memo_;
  }

 private:
  /// Membership bitmask -> CoupledStats front cache. It stays small enough
  /// to keep at 1/2 max load.
  using SetCache = detail::ChunkedTable<markov::CoupledStats, 256, 1, 2>;

  const platform::Platform& platform_;
  const model::Application& app_;
  double eps_;

  /// The store every series quantity resolves through (shared across the
  /// session, or private to this view when sharing is ablated).
  std::shared_ptr<markov::ChainStatsStore> store_;
  std::vector<markov::ChainId> chain_of_;  // processor -> canonical chain id
  /// Per-processor coupled statistics: quads copied from the store's
  /// per-chain entries (computed once per DISTINCT chain, ever), with this
  /// view's private lazily grown w-memo (CoupledStats' memo is not
  /// thread-safe, so views never grow it on shared store instances; the
  /// memo entries are pure functions of the quad, so per-view copies stay
  /// bit-identical to any other view's).
  std::vector<markov::CoupledStats> per_proc_;
  std::vector<markov::ChainSurvival*> surv_of_;  // processor -> shared table

  mutable SetCache set_cache_;
  mutable std::vector<markov::ChainId> scratch_ids_;  // reused per set_stats miss
  mutable BuildMemo build_memo_;
  mutable std::size_t set_cap_;    // eviction caps (lowered only by tests)
  mutable std::size_t build_cap_;
};

}  // namespace tcgrid::sched
