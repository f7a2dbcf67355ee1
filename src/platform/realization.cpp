#include "platform/realization.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

namespace tcgrid::platform {

namespace {

/// Slots materialized per source pull. Large enough to amortize the virtual
/// fill_block dispatch and the digest pass, small enough that lazy growth
/// does not overshoot a few-hundred-slot makespan by much.
constexpr long kChunk = 512;

/// Runs locate() walks forward from a worker's cursor before it falls back
/// to binary search.
constexpr std::size_t kCursorWalk = 4;

inline bool is_up(markov::State s) noexcept { return s == markov::State::Up; }

}  // namespace

Realization::Realization(std::unique_ptr<AvailabilitySource> source,
                         std::size_t budget_bytes)
    : source_(std::move(source)), budget_(budget_bytes) {
  if (source_ == nullptr) {
    throw std::invalid_argument("Realization: null source");
  }
  p_ = source_->size();
  if (p_ < 1) throw std::invalid_argument("Realization: empty source");
  if (source_->position() != 0) {
    throw std::invalid_argument("Realization: source already advanced");
  }
  const auto p = static_cast<std::size_t>(p_);
  runs_.resize(p);
  cursor_.assign(p, 0);
  last_row_.resize(p);
  scratch_.resize(p * static_cast<std::size_t>(kChunk));
}

void Realization::materialize_chunk(long slots) {
  const auto p = static_cast<std::size_t>(p_);
  source_->fill_block(scratch_.data(), slots);

  const auto words = static_cast<std::size_t>((frontier_ + slots + 63) >> 6);
  chg_bits_.resize(words, 0);
  gain_bits_.resize(words, 0);
  ndown_bits_.resize(words, 0);

  const markov::State* prev = frontier_ > 0 ? last_row_.data() : nullptr;
  std::size_t new_runs = 0;
  for (long r = 0; r < slots; ++r) {
    const markov::State* row = scratch_.data() + static_cast<std::size_t>(r) * p;
    const long slot = frontier_ + r;
    unsigned chg = 0;
    unsigned gain = 0;
    unsigned ndown = 0;
    if (prev == nullptr) {
      // Slot 0 has no predecessor: conservatively all-set, exactly as the
      // engine digests the first row of a fresh run.
      chg = gain = ndown = 1;
      for (std::size_t q = 0; q < p; ++q) {
        runs_[q].push_back(Run{slot, row[q]});
        ++new_runs;
      }
    } else {
      // Word-wise diff: states are bytes, so XOR of 8-byte chunks yields a
      // nonzero byte exactly at changed workers; only those are processed.
      // Rows hold every state 30-60% of the time in the paper's world, and
      // changed rows touch 1-3 workers — this pass is what keeps
      // materialization within a few percent of bare generation. The
      // bit-index -> byte-index mapping below is little-endian; big-endian
      // hosts take the byte-wise tail loop for the whole row.
      std::size_t q = 0;
      if constexpr (std::endian::native == std::endian::little) {
        for (; q + 8 <= p; q += 8) {
          std::uint64_t a;
          std::uint64_t b;
          std::memcpy(&a, prev + q, 8);
          std::memcpy(&b, row + q, 8);
          std::uint64_t diff = a ^ b;
          while (diff != 0) {
            const auto at = q + static_cast<std::size_t>(std::countr_zero(diff) >> 3);
            const markov::State s = row[at];
            runs_[at].push_back(Run{slot, s});
            ++new_runs;
            const bool was_up = is_up(prev[at]);
            const bool now_up = is_up(s);
            chg |= static_cast<unsigned>(was_up != now_up);
            gain |= static_cast<unsigned>(!was_up && now_up);
            ndown |= static_cast<unsigned>(s == markov::State::Down);
            diff &= ~(0xffULL << (static_cast<std::size_t>(at - q) * 8));
          }
        }
      }
      for (; q < p; ++q) {
        const markov::State s = row[q];
        if (s != prev[q]) {
          runs_[q].push_back(Run{slot, s});
          ++new_runs;
          const bool was_up = is_up(prev[q]);
          const bool now_up = is_up(s);
          chg |= static_cast<unsigned>(was_up != now_up);
          gain |= static_cast<unsigned>(!was_up && now_up);
          ndown |= static_cast<unsigned>(s == markov::State::Down);
        }
      }
    }
    const auto w = static_cast<std::size_t>(slot >> 6);
    const std::uint64_t mask = 1ULL << (static_cast<std::uint64_t>(slot) & 63);
    if (chg) chg_bits_[w] |= mask;
    if (gain) gain_bits_[w] |= mask;
    if (ndown) ndown_bits_[w] |= mask;
    prev = row;
  }
  std::copy_n(scratch_.data() + static_cast<std::size_t>(slots - 1) * p, p,
              last_row_.data());
  frontier_ += slots;
  total_runs_ += new_runs;
  bytes_ = total_runs_ * sizeof(Run) + 3 * words * sizeof(std::uint64_t);
}

void Realization::ensure(long slots) {
  assert(!frozen_ || slots <= frontier_);
  while (frontier_ < slots) {
    materialize_chunk(kChunk);
    if (budget_ != 0 && bytes_ > budget_) {
      throw RealizationBudgetExceeded(bytes_, budget_);
    }
  }
}

std::size_t Realization::locate(std::size_t q, long slot) const {
  const auto& runs = runs_[q];
  // The cursor first, then a few runs past it: replays move forward, and a
  // bulk advance leaves the workers it did not read a few runs behind.
  // Binary search otherwise (replays restart from slot 0, stretch queries
  // land anywhere); past the cursor when the walk got that far.
  std::size_t i = cursor_[q];
  std::size_t lo = 0;
  if (i < runs.size() && runs[i].begin <= slot) {
    for (std::size_t k = 0; k <= kCursorWalk; ++k, ++i) {
      if (i + 1 == runs.size() || runs[i + 1].begin > slot) {
        cursor_[q] = i;
        return i;
      }
    }
    lo = i;  // runs[i].begin <= slot: the walk only passed runs that do
  }
  const auto it =
      std::upper_bound(runs.begin() + static_cast<std::ptrdiff_t>(lo), runs.end(), slot,
                       [](long s, const Run& run) { return s < run.begin; });
  assert(it != runs.begin());
  i = static_cast<std::size_t>(it - runs.begin()) - 1;
  cursor_[q] = i;
  return i;
}

void Realization::expand_rows(long begin, long end, markov::State* buf) const {
  assert(begin >= 0 && begin <= end && end <= frontier_);
  if (begin == end) return;
  const auto p = static_cast<std::size_t>(p_);
  for (std::size_t q = 0; q < p; ++q) {
    const auto& runs = runs_[q];
    std::size_t i = locate(q, begin);
    long t = begin;
    while (t < end) {
      const long run_end = i + 1 < runs.size() ? runs[i + 1].begin : frontier_;
      const long stop = std::min(end, run_end);
      const markov::State s = runs[i].state;
      for (; t < stop; ++t) {
        buf[static_cast<std::size_t>(t - begin) * p + q] = s;
      }
      if (t < end) ++i;
    }
    cursor_[q] = i;
  }
}

markov::State Realization::state_at(int q, long slot) const {
  assert(slot >= 0 && slot < frontier_);
  const auto qi = static_cast<std::size_t>(q);
  return runs_[qi][locate(qi, slot)].state;
}

long Realization::stable_until(const std::vector<int>& procs, long from, long limit) {
  assert(from >= 0);
  ensure(from + 1);
  while (true) {
    // min over the listed workers of the end of the run containing `from`;
    // a worker on its LAST materialized run contributes frontier_ ("end
    // unknown"), which is unambiguous: a real next-run begin is < frontier_.
    long e = limit;
    for (int proc : procs) {
      const auto q = static_cast<std::size_t>(proc);
      const auto& runs = runs_[q];
      const std::size_t i = locate(q, from);
      const long run_end = i + 1 < runs.size() ? runs[i + 1].begin : frontier_;
      e = std::min(e, run_end);
    }
    if (e >= limit) return limit;
    if (e < frontier_) return e;
    ensure(frontier_ + 1);  // the limiting run may continue: materialize on
  }
}

bool Realization::any_new_down(long begin, long end) const {
  assert(begin >= 0 && end < frontier_);
  long s = begin;
  while (s <= end) {
    const auto w = static_cast<std::size_t>(s >> 6);
    const std::uint64_t word =
        ndown_bits_[w] >> (static_cast<std::uint64_t>(s) & 63);
    if (word != 0) {
      const long cand = s + std::countr_zero(word);
      if (cand <= end) return true;
      return false;  // set bits in this word are all past `end`
    }
    s = static_cast<long>(w + 1) << 6;
  }
  return false;
}

bool Realization::down_overlaps(int q, long begin, long end) const {
  assert(begin >= 0 && end < frontier_);
  if (begin > end) return false;
  const auto qi = static_cast<std::size_t>(q);
  const auto& runs = runs_[qi];
  for (std::size_t i = locate(qi, begin); i < runs.size() && runs[i].begin <= end;
       ++i) {
    if (runs[i].state == markov::State::Down) return true;
  }
  return false;
}

long Realization::next_change(long from, long limit) {
  assert(from >= 0);
  long s = from;
  while (s < limit) {
    if (s >= frontier_) ensure(s + 1);
    const long hi = std::min(limit, frontier_);  // scannable bound
    while (s < hi) {
      const auto w = static_cast<std::size_t>(s >> 6);
      const std::uint64_t word =
          (chg_bits_[w] | ndown_bits_[w]) >> (static_cast<std::uint64_t>(s) & 63);
      if (word != 0) {
        const long cand = s + std::countr_zero(word);
        // A candidate past `hi` can only be past `limit` (bits beyond the
        // frontier are never set), so the range is change-free.
        if (cand < hi) return cand;
        break;
      }
      s = static_cast<long>(w + 1) << 6;
    }
    s = hi;  // [from, hi) scanned clean; grow the frontier if limit allows
  }
  return limit;
}

}  // namespace tcgrid::platform
