// Materialized availability realizations: generate once, replay many times.
//
// The paper's methodology is paired comparison — every heuristic evaluated
// on a (scenario, trial) faces the IDENTICAL availability realization. The
// historical way to reproduce that pairing is re-seeding: each heuristic run
// regenerates the stream from scratch (one RNG draw per processor per slot
// for the Markov family) and the engine recomputes the same per-slot
// digests, so generation + digesting is paid once per heuristic. A
// Realization materializes one trial's timeline exactly once, through the
// same fill_block contract live consumers use, and replays it to every
// subsequent run (see DESIGN.md §9):
//
//   * storage is columnar run-length encoding — per-worker state intervals.
//     Paper-world self-loop probabilities are 0.90..0.99, so state runs
//     average 10..100 slots and the RLE is roughly an order of magnitude
//     smaller than the dense [slot x proc] matrix;
//   * the per-slot digest bitsets the engine's event-horizon loop needs
//     (UP-set-changed / UP-gain / newly-DOWN, DESIGN.md §8) are computed in
//     the same single pass and stored packed, so replay runs never
//     re-digest;
//   * materialization is lazy: slots are pulled from the wrapped source in
//     chunks as consumers reach for them, so a trial only ever materializes
//     as far as its longest run actually simulates (makespans are typically
//     a few hundred slots against a 10^6 slot cap);
//   * memory is bounded by a byte budget; crossing it throws
//     RealizationBudgetExceeded, which api::Session catches to fall back to
//     live generation (bit-identical, just slower);
//   * sim::Engine's replay constructor reads every slot off the
//     realization: single expanded rows for its per-slot steps, digest bits
//     and change-to-change jumps for its bulk advances. A Realization is
//     deliberately not an AvailabilitySource: a caller that needs a source
//     builds a fresh live one from the family, which is bit-identical.
//
// Bit-identity: the wrapped source is pulled exclusively through
// fill_block, whose contract (availability.hpp) guarantees identical draws
// however the stream is chunked, so expand_rows reproduces live generation
// exactly for every family in the scen registry; the digest definitions are
// the engine's own (slot 0 conservatively all-set, later slots relative to
// their predecessor).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "markov/state.hpp"
#include "platform/availability.hpp"

namespace tcgrid::platform {

/// Thrown when materializing further slots would exceed the realization's
/// byte budget. The caller owns the fallback policy (api::Session reruns
/// the interrupted simulation against live generation).
class RealizationBudgetExceeded : public std::runtime_error {
 public:
  RealizationBudgetExceeded(std::size_t bytes, std::size_t budget)
      : std::runtime_error("Realization: " + std::to_string(bytes) +
                           " bytes exceeds budget of " + std::to_string(budget)),
        bytes_(bytes),
        budget_(budget) {}

  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::size_t budget() const noexcept { return budget_; }

 private:
  std::size_t bytes_;
  std::size_t budget_;
};

/// One trial's availability timeline, materialized lazily from an owned
/// source and shared (sequentially) by every run of that trial. NOT
/// thread-safe: replay queries extend the materialized prefix on demand.
class Realization {
 public:
  /// Takes ownership of `source` (which must be freshly constructed, i.e.
  /// at position 0). `budget_bytes` bounds the materialized representation;
  /// 0 means unlimited.
  explicit Realization(std::unique_ptr<AvailabilitySource> source,
                       std::size_t budget_bytes = 0);

  [[nodiscard]] int size() const noexcept { return p_; }

  /// Slots materialized so far (the stream prefix [0, frontier())).
  [[nodiscard]] long frontier() const noexcept { return frontier_; }

  /// Current footprint of the materialized representation.
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

  /// Materialize through slot `slots` (exclusive); no-op when already
  /// covered. Pulls the source in fixed chunks, so the frontier may end up
  /// slightly past `slots`. Throws RealizationBudgetExceeded when the
  /// representation would outgrow the budget. Must not be called past the
  /// frontier once frozen.
  void ensure(long slots);

  /// Stop materializing: everything past the current frontier will have
  /// exactly ONE consumer (api::Session freezes a realization when its
  /// unit's LAST heuristic starts), so recording it would be pure overhead
  /// — the engine instead switches to live continuation on the embedded
  /// source, which sits exactly at the frontier (materialization consumes
  /// it through fill_block and nothing else ever touches it). Replay of
  /// the materialized prefix [0, frontier()) remains fully available.
  void freeze() noexcept { frozen_ = true; }
  [[nodiscard]] bool frozen() const noexcept { return frozen_; }

  /// The embedded source, positioned exactly at frontier(). Only meaningful
  /// after freeze(); the caller may consume it (live continuation) but must
  /// not destroy the realization while doing so.
  [[nodiscard]] AvailabilitySource& source() noexcept { return *source_; }

  /// Write rows [begin, end) of the timeline into `buf`, row-major
  /// [slot][proc] exactly as AvailabilitySource::fill_block would have.
  /// Requires end <= frontier() (call ensure first) and begin <= end.
  void expand_rows(long begin, long end, markov::State* buf) const;

  /// Per-slot digests (see DESIGN.md §8): slot 0 is conservatively all-set,
  /// slot t > 0 describes the transition from t-1 to t.
  [[nodiscard]] bool up_changed_at(long slot) const { return bit(chg_bits_, slot); }
  [[nodiscard]] bool up_gain_at(long slot) const { return bit(gain_bits_, slot); }
  [[nodiscard]] bool new_down_at(long slot) const { return bit(ndown_bits_, slot); }

  /// First slot in [from, limit) where anything changes (UP membership or a
  /// fresh DOWN), or `limit` when the range is change-free. Materializes as
  /// far as it scans (at most `limit`), so it can throw
  /// RealizationBudgetExceeded.
  [[nodiscard]] long next_change(long from, long limit);

  /// State of worker q at `slot` (a point lookup on its RLE intervals).
  /// Requires slot < frontier().
  [[nodiscard]] markov::State state_at(int q, long slot) const;

  /// First slot in (from, limit] at which some worker listed in `procs`
  /// holds a DIFFERENT state than it holds at `from` — i.e. the end of the
  /// joint homogeneous run covering `from`, straight off the per-worker RLE
  /// intervals — or `limit` when every listed worker holds through it.
  /// This is the event-horizon loop's stretch oracle: enrolled-set runs are
  /// an order of magnitude longer than global quiet periods (any of p
  /// workers flapping ends the latter). Materializes through the returned
  /// slot; can throw RealizationBudgetExceeded.
  [[nodiscard]] long stable_until(const std::vector<int>& procs, long from, long limit);

  /// True when worker q is DOWN at any slot of [begin, end] (inclusive).
  /// The engine's aggregate crash sweep over a skipped stretch: crash() is
  /// idempotent and a worker DOWN at `begin` was already crashed at its
  /// DOWN entry, so overlap is equivalent to entry detection. Requires
  /// end < frontier().
  [[nodiscard]] bool down_overlaps(int q, long begin, long end) const;

  /// True when ANY worker enters DOWN during [begin, end] (inclusive): one
  /// word scan of the newly-DOWN bitset. The crash sweep's early-out — a
  /// range with no fresh DOWN needs no per-worker interval walk, because
  /// every worker DOWN in it was DOWN before `begin` and was crashed at its
  /// entry slot. Requires end < frontier().
  [[nodiscard]] bool any_new_down(long begin, long end) const;

 private:
  struct Run {
    long begin;           ///< first slot of the run
    markov::State state;  ///< state held through the run
  };

  [[nodiscard]] static bool bit(const std::vector<std::uint64_t>& words, long slot) {
    return (words[static_cast<std::size_t>(slot >> 6)] >>
            (static_cast<std::uint64_t>(slot) & 63)) &
           1U;
  }

  /// Index of worker q's run containing `slot` (cursor hint and a short
  /// forward walk, then binary search). Requires slot < frontier_. Updates
  /// the cursor.
  [[nodiscard]] std::size_t locate(std::size_t q, long slot) const;

  void materialize_chunk(long slots);

  std::unique_ptr<AvailabilitySource> source_;
  int p_;
  long frontier_ = 0;
  std::size_t budget_ = 0;
  std::size_t bytes_ = 0;
  bool frozen_ = false;

  std::vector<std::vector<Run>> runs_;  ///< per worker, begin-ascending
  std::size_t total_runs_ = 0;          ///< sum of runs_[q].size()
  std::vector<std::uint64_t> chg_bits_;
  std::vector<std::uint64_t> gain_bits_;
  std::vector<std::uint64_t> ndown_bits_;

  std::vector<markov::State> scratch_;   ///< chunk staging buffer
  std::vector<markov::State> last_row_;  ///< row frontier_-1 (digest carry)

  /// Per-worker run-index hints: lookups are overwhelmingly sequential
  /// (each replay walks the timeline front to back), so remembering where
  /// the last lookup left off skips the binary search.
  mutable std::vector<std::size_t> cursor_;
};

}  // namespace tcgrid::platform
