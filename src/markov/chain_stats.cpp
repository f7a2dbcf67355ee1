#include "markov/chain_stats.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "markov/persistent_stats.hpp"
#include "obs/obs.hpp"

namespace tcgrid::markov {

namespace {

struct StoreMetrics {
  obs::Histogram intern_us;   ///< intern() latency (hits and misses)
  obs::Histogram grow_us;     ///< survival-table extension latency (misses only)
};

StoreMetrics& store_metrics() {
  static StoreMetrics m = [] {
    obs::Registry& reg = obs::Registry::instance();
    return StoreMetrics{reg.histogram("tcgrid_chainstats_intern_us"),
                        reg.histogram("tcgrid_chainstats_survival_grow_us")};
  }();
  return m;
}

}  // namespace

// ----------------------------------------------------------- ChainSurvival ----

ChainSurvival::~ChainSurvival() {
  for (int k = 0; k < kSegments; ++k) {
    if ((heap_ >> k) & 1u) delete[] segments_[k].load(std::memory_order_relaxed);
  }
}

void ChainSurvival::open_segment(long n) {
  // `n` is the next entry index AND the count of entries written so far in
  // this append burst (published <= n; the tail is not yet visible to
  // readers). Every entry below n sits in an earlier segment except, for a
  // seeded table, the mapped head of the segment straddling the mapped
  // frontier: that one is copied to heap here, at the first growth past it.
  const auto u = static_cast<unsigned long>(n + kFirstSegment);
  const int top = std::bit_width(u) - 1;
  const int k = top - kFirstShift;
  if (k >= kSegments) throw std::length_error("ChainSurvival: table full");
  const long base = (1L << top) - kFirstSegment;
  const long size = kFirstSegment << k;
  // Default-initialized: no zero fill, every entry is written before a
  // published length covers it.
  auto* fresh = new double[static_cast<std::size_t>(size)];
  if (const double* mapped = segments_[k].load(std::memory_order_relaxed)) {
    std::copy(mapped, mapped + (n - base), fresh);
  }
  // Own it before any reader can see it, then publish the pointer BEFORE
  // the length that covers it ever is. A re-pointed straddler's readers may
  // still hold the mapped pointer: it stays valid, and its doubles are the
  // ones just copied.
  heap_ |= 1u << k;
  segments_[k].store(fresh, std::memory_order_release);
  write_ = fresh;
  write_base_ = base;
  write_end_ = base + size;
  if (bytes_ != nullptr) {
    bytes_->fetch_add(static_cast<std::size_t>(size) * sizeof(double),
                      std::memory_order_relaxed);
  }
}

double ChainSurvival::grow_to(long t) {
  if (t <= 0) return 1.0;
  const std::lock_guard<std::mutex> lock(mu_);
  long n = published_.load(std::memory_order_relaxed);
  if (t < n) return at(t);
  // Underflow cap: the survival probability is a sum of non-negative
  // doubles, so once an entry is exactly 0.0 every later entry is the
  // identical 0.0 — stop tabulating and answer 0.0 directly. Without this,
  // near-hopeless communication phases (e_comm grows exponentially in the
  // remaining slots) extend the table to millions of explicit zeros and
  // dominate whole sweeps.
  if (n > 0 && at(n - 1) == 0.0) return 0.0;
  // Past the published/zero-cap fast paths: everything below is real append
  // work, the latency this histogram is for.
  const obs::ScopedTimer timer(store_metrics().grow_us);
  if (n == 0) {
    open_segment(0);
    write_[0] = 1.0;  // t = 0; row_ is e_U already
    n = 1;
  }
  // Extend the table: entry k = P(not DOWN within k slots). row_ stands at
  // the last tabulated k and just keeps advancing — the same advance
  // sequence the per-estimator tables (and a from-scratch replay) would
  // run, so every stored double is bit-identical to them. Exact growth:
  // with the row cached, resuming costs nothing, so there is no reason to
  // overshoot the request.
  while (n <= t) {
    row_.advance(*chain_);
    double s = row_.survival();
    // Subnormal cut: below DBL_MIN the sequence has left meaningful
    // territory (these probabilities multiply into estimates that are
    // already ~0) and subnormal multiplies are 10-100x slower on common
    // cores — snap to the terminal 0.0 a few thousand slots early instead
    // of crawling through the denormal tail entry by entry.
    if (s < std::numeric_limits<double>::min()) s = 0.0;
    if (n >= write_end_) open_segment(n);
    write_[n - write_base_] = s;
    ++n;
    if (s == 0.0) break;  // all later entries are equal zeros
  }
  extend_monotone(published_.load(std::memory_order_relaxed), n);
  published_.store(n, std::memory_order_release);
  return t < n ? at(t) : 0.0;
}

void ChainSurvival::extend_monotone(long from, long n) noexcept {
  long m = monotone_.load(std::memory_order_relaxed);
  if (m < from) return;  // broken earlier: the prefix never grows again
  while (m < n && (m == 0 || at(m) <= at(m - 1))) ++m;
  monotone_.store(m, std::memory_order_release);
}

void ChainSurvival::seed_from(const double* data, long len, UrRow row) {
  assert(len > 0 && "seed_from: empty prefix has nothing to seed");
  assert(published_.load(std::memory_order_relaxed) == 0 &&
         "seed_from: table already populated");
  // Every segment holding a mapped entry points into the mapping — served
  // at the same lock-free depth as a heap segment — but is NEVER written
  // through: heap_ stays clear for them, and write_end_ == 0 sends the
  // first append to open_segment, which copies the straddling segment's
  // mapped head to heap (or opens the next segment when the mapping ends
  // on a boundary).
  for (long base = 0, size = kFirstSegment, k = 0; base < len;
       base += size, size *= 2, ++k) {
    segments_[static_cast<std::size_t>(k)].store(data + base,
                                                 std::memory_order_release);
  }
  row_ = row;
  extend_monotone(0, len);
  published_.store(len, std::memory_order_release);
}

UrRow ChainSurvival::snapshot(std::vector<double>& out) {
  const std::lock_guard<std::mutex> lock(mu_);
  const long n = published_.load(std::memory_order_relaxed);
  out.resize(static_cast<std::size_t>(n));
  for (long base = 0, size = kFirstSegment, k = 0; base < n;
       base += size, size *= 2, ++k) {
    const double* seg = segments_[static_cast<std::size_t>(k)].load(
        std::memory_order_relaxed);
    std::copy(seg, seg + std::min(size, n - base), out.begin() + base);
  }
  return row_;
}

// --------------------------------------------------------- ChainStatsStore ----

ChainStatsStore::ChainStatsStore(double eps) : ChainStatsStore(eps, nullptr) {}

ChainStatsStore::ChainStatsStore(double eps,
                                 std::shared_ptr<PersistentChainStats> persist)
    : eps_(eps), persist_(std::move(persist)) {
  if (eps_ <= 0.0) {
    throw std::invalid_argument("ChainStatsStore: eps must be positive");
  }
  if (persist_ != nullptr && persist_->eps() != eps_) {
    throw std::invalid_argument(
        "ChainStatsStore: persistent store eps does not match (every stored "
        "quantity depends on the truncation precision)");
  }
}

std::array<std::uint64_t, 4> ChainStatsStore::content_key(
    const UrMatrix& m) noexcept {
  return {std::bit_cast<std::uint64_t>(m.uu), std::bit_cast<std::uint64_t>(m.ur),
          std::bit_cast<std::uint64_t>(m.ru), std::bit_cast<std::uint64_t>(m.rr)};
}

ChainId ChainStatsStore::intern(const UrMatrix& m) {
  const obs::ScopedTimer timer(store_metrics().intern_us);
  const auto key = content_key(m);
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = by_content_.find(key); it != by_content_.end()) {
    intern_hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }
  // Construct the entry BEFORE the key becomes visible: if any allocation
  // here throws, the store is unchanged — a map node pointing at a chain id
  // that was never created would alias a later, different chain.
  auto entry = std::make_unique<ChainEntry>();
  entry->matrix = m;
  entry->survival.chain_ = &entry->matrix;  // stable: entry lives behind unique_ptr
  entry->survival.bytes_ = &bytes_;
  if (persist_ != nullptr) {
    // Disk-backed seed, before the entry becomes visible (no concurrent
    // reader yet): a persisted survival prefix is served straight from the
    // generation mapping — zero heap bytes — with the stored UrRow frontier
    // making any later growth resume the exact advance sequence; a persisted
    // quad satisfies stats_once so chain_stats() never recomputes it. Both
    // are bit-identical to compute-and-intern by the §10 purity argument.
    PersistentChainStats::ChainHit hit;
    if (persist_->find_chain(key, hit)) {
      if (hit.survival_len > 0) {
        entry->survival.seed_from(hit.survival, hit.survival_len, hit.row);
      }
      if (hit.has_stats) {
        std::call_once(entry->stats_once, [&] { entry->stats = hit.stats; });
        entry->stats_ready.store(true, std::memory_order_release);
      }
    }
  }
  const auto id = static_cast<ChainId>(chains_.size());
  chains_.push_back(std::move(entry));
  try {
    by_content_.emplace(key, id);
  } catch (...) {
    chains_.pop_back();  // noexcept: the rollback cannot itself fail
    throw;
  }
  bytes_.fetch_add(sizeof(ChainEntry) + sizeof(key) + sizeof(ChainId),
                   std::memory_order_relaxed);
  return id;
}

UrMatrix ChainStatsStore::chain(ChainId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return chains_.at(id)->matrix;
}

CoupledStats ChainStatsStore::chain_stats(ChainId id) const {
  ChainEntry* entry;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    entry = chains_.at(id).get();
  }
  // Compute outside the store mutex: a slow renewal recursion for one chain
  // must not block lookups of other chains. call_once publishes the quad.
  std::call_once(entry->stats_once, [&] {
    const UrMatrix procs[] = {entry->matrix};
    entry->stats = coupled_stats(procs, eps_);
  });
  entry->stats_ready.store(true, std::memory_order_release);
  return entry->stats;
}

CoupledStats ChainStatsStore::set_stats(std::span<const ChainId> ids) const {
  assert(std::is_sorted(ids.begin(), ids.end()) &&
         "ChainStatsStore::set_stats: ids must be the sorted multiset spelling");
  SetEntry* entry;
  {
    std::vector<ChainId> key(ids.begin(), ids.end());
    const std::lock_guard<std::mutex> lock(mu_);
    if (const auto it = sets_.find(key); it != sets_.end()) {
      set_hits_.fetch_add(1, std::memory_order_relaxed);
      entry = it->second.get();
    } else {
      // Construct the entry BEFORE the key becomes visible: a failed
      // allocation must not leave a {key, nullptr} node that a later call
      // would dereference as a hit (same discipline as intern()).
      auto node = std::make_unique<SetEntry>();
      entry = node.get();
      sets_.emplace(std::move(key), std::move(node));
      bytes_.fetch_add(sizeof(SetEntry) + ids.size() * sizeof(ChainId) + 64,
                       std::memory_order_relaxed);
      set_misses_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::call_once(entry->once, [&] {
    // Gather the multiset's matrices (brief re-lock: the chain directory may
    // grow concurrently) and evaluate the series in CONTENT order: sorted by
    // the matrices' bit patterns, a total order independent of intern order,
    // call order, thread timing and store population. This makes the stored
    // quad a pure function of the multiset — the bit-identity argument of
    // DESIGN.md §10 rests on it.
    std::vector<UrMatrix> procs;
    procs.reserve(ids.size());
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (ChainId id : ids) procs.push_back(chains_.at(id)->matrix);
    }
    std::sort(procs.begin(), procs.end(), [](const UrMatrix& a, const UrMatrix& b) {
      return content_key(a) < content_key(b);
    });
    if (persist_ != nullptr) {
      // The persistent key is the flattened content-ordered key sequence —
      // the cross-process spelling of this multiset (ids are store-local).
      // A hit is the exact quad a computation would produce (purity), so
      // the expensive coupled series is skipped entirely.
      std::vector<std::uint64_t> key;
      key.reserve(procs.size() * 4);
      for (const UrMatrix& m : procs) {
        const auto k = content_key(m);
        key.insert(key.end(), k.begin(), k.end());
      }
      if (persist_->find_set(key, entry->stats)) return;
    }
    entry->stats = coupled_stats(procs, eps_);
  });
  entry->ready.store(true, std::memory_order_release);
  return entry->stats;
}

ChainSurvival& ChainStatsStore::survival(ChainId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return chains_.at(id)->survival;
}

void ChainStatsStore::export_entries(std::vector<ExportedChain>& chains,
                                     std::vector<ExportedSet>& sets) const {
  chains.clear();
  sets.clear();
  // Directory walk under the store mutex only — entry pointers are stable
  // (unique_ptr nodes), so the per-entry copies happen outside it: survival
  // prefixes under their per-chain mutex, quads behind the ready flags'
  // acquire. Entries still computing are skipped; a later flush gets them.
  std::vector<ChainEntry*> entries;
  std::vector<std::pair<std::vector<std::uint64_t>, SetEntry*>> set_nodes;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    entries.reserve(chains_.size());
    for (const auto& entry : chains_) entries.push_back(entry.get());
    for (const auto& [ids, node] : sets_) {
      if (!node->ready.load(std::memory_order_acquire)) continue;
      // Cross-process spelling: content keys in content order — exactly the
      // order set_stats evaluates in (the arrays sort the same way their
      // matrices do, the comparison IS content_key).
      std::vector<std::array<std::uint64_t, 4>> keys;
      keys.reserve(ids.size());
      for (ChainId id : ids) keys.push_back(content_key(chains_.at(id)->matrix));
      std::sort(keys.begin(), keys.end());
      std::vector<std::uint64_t> flat;
      flat.reserve(keys.size() * 4);
      for (const auto& k : keys) flat.insert(flat.end(), k.begin(), k.end());
      set_nodes.emplace_back(std::move(flat), node.get());
    }
  }
  for (ChainEntry* entry : entries) {
    ExportedChain out;
    out.key = content_key(entry->matrix);
    if (entry->stats_ready.load(std::memory_order_acquire)) {
      out.has_stats = true;
      out.stats = entry->stats;
    }
    out.row = entry->survival.snapshot(out.survival);
    if (!out.has_stats && out.survival.empty()) continue;  // nothing derived yet
    chains.push_back(std::move(out));
  }
  for (auto& [key, node] : set_nodes) {
    sets.push_back(ExportedSet{std::move(key), node->stats});
  }
}

ChainStatsStore::Counters ChainStatsStore::counters() const {
  Counters out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out.chains = chains_.size();
    out.set_entries = sets_.size();
    for (const auto& entry : chains_) {
      out.survival_entries +=
          static_cast<std::size_t>(entry->survival.published());
    }
  }
  out.intern_hits = intern_hits_.load(std::memory_order_relaxed);
  out.set_hits = set_hits_.load(std::memory_order_relaxed);
  out.set_misses = set_misses_.load(std::memory_order_relaxed);
  out.bytes = bytes_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace tcgrid::markov
