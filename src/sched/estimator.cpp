#include "sched/estimator.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tcgrid::sched {

namespace {
// Bound the front cache / build memo; reached only by pathological runs.
// Eviction retires value chunks for one epoch instead of freeing them, so a
// reference held across the cap stays valid (see evict()).
constexpr std::size_t kMaxCachedSets = std::size_t{1} << 22;
constexpr std::size_t kMaxMemoizedBuilds = std::size_t{1} << 20;
}  // namespace

namespace detail {

template <class Value, std::size_t kChunk, std::size_t kLoadNum, std::size_t kLoadDen>
Value& ChunkedTable<Value, kChunk, kLoadNum, kLoadDen>::lookup(std::uint64_t key,
                                                             bool& fresh) {
  if (table_.empty() || size_ * kLoadDen >= table_.size() * kLoadNum) grow();
  const std::size_t mask = table_.size() - 1;
  std::size_t i = static_cast<std::size_t>(mix64(key)) & mask;
  while (table_[i].slot >= 0 && table_[i].key != key) i = (i + 1) & mask;
  auto& e = table_[i];
  if (e.slot < 0) {
    if (size_ % kChunk == 0) chunks_.push_back(std::make_unique<Value[]>(kChunk));
    e.key = key;
    e.slot = static_cast<std::int32_t>(size_++);
    fresh = true;
  }
  const auto slot = static_cast<std::size_t>(e.slot);
  return chunks_[slot / kChunk][slot % kChunk];
}

template <class Value, std::size_t kChunk, std::size_t kLoadNum, std::size_t kLoadDen>
Value& ChunkedTable<Value, kChunk, kLoadNum, kLoadDen>::insert(std::uint64_t key) {
  bool fresh = false;
  Value& v = lookup(key, fresh);
  assert(fresh && "ChunkedTable::insert: key already present");
  return v;
}

template <class Value, std::size_t kChunk, std::size_t kLoadNum, std::size_t kLoadDen>
void ChunkedTable<Value, kChunk, kLoadNum, kLoadDen>::grow() {
  std::vector<Entry> old = std::move(table_);
  table_.assign(old.empty() ? 1024 : old.size() * 2, Entry{});
  const std::size_t mask = table_.size() - 1;
  for (const Entry& e : old) {
    if (e.slot < 0) continue;
    std::size_t i = static_cast<std::size_t>(mix64(e.key)) & mask;
    while (table_[i].slot >= 0) i = (i + 1) & mask;
    table_[i] = e;
  }
}

template <class Value, std::size_t kChunk, std::size_t kLoadNum, std::size_t kLoadDen>
void ChunkedTable<Value, kChunk, kLoadNum, kLoadDen>::evict() {
  // Epoch retirement: drop the index, but keep the current value chunks
  // alive for one more epoch (and only now free the PREVIOUS epoch's).
  assert(size_ > 0 && "ChunkedTable::evict: eviction with nothing inserted");
  table_.clear();
  retired_.clear();
  retired_.swap(chunks_);
  size_ = 0;
}

template class ChunkedTable<MemoizedBuild, 64, 3, 4>;            // Estimator::BuildMemo
template class ChunkedTable<markov::CoupledStats, 256, 1, 2>;   // Estimator::SetCache

}  // namespace detail

Estimator::Estimator(const platform::Platform& platform, const model::Application& app,
                     double eps, std::shared_ptr<markov::ChainStatsStore> store)
    : platform_(platform),
      app_(app),
      eps_(eps),
      store_(std::move(store)),
      set_cap_(kMaxCachedSets),
      build_cap_(kMaxMemoizedBuilds) {
  if (eps_ <= 0.0) throw std::invalid_argument("Estimator: eps must be positive");
  if (platform_.size() > 64) {
    throw std::invalid_argument("Estimator: more than 64 processors unsupported");
  }
  if (store_ == nullptr) {
    // Sharing ablated: a private store. Same code path, same values — the
    // store's results are pure functions of chain content (DESIGN.md §10),
    // so shared and private resolution are bit-identical by construction.
    store_ = std::make_shared<markov::ChainStatsStore>(eps_);
  } else if (store_->eps() != eps_) {
    throw std::invalid_argument(
        "Estimator: eps differs from the shared chain-stats store's");
  }
  const auto p = static_cast<std::size_t>(platform_.size());
  chain_of_.reserve(p);
  surv_of_.reserve(p);
  per_proc_.reserve(p);
  for (int q = 0; q < platform_.size(); ++q) {
    // Intern first, compute once per DISTINCT chain: the store's per-chain
    // quad and shared survival table are built on first sight of the chain
    // CONTENT — on a homogeneous platform the old constructor ran
    // coupled_stats p times for p identical chains; now p-1 of these calls
    // are dedup hits that only copy the 4-scalar quad.
    const markov::ChainId id =
        store_->intern(markov::ur_submatrix(platform_.proc(q).availability));
    chain_of_.push_back(id);
    per_proc_.push_back(store_->chain_stats(id));
    surv_of_.push_back(&store_->survival(id));
  }
}

const markov::CoupledStats& Estimator::set_stats(std::span<const int> set) const {
  std::uint64_t key = 0;
  for (int q : set) key |= std::uint64_t{1} << q;
  return set_stats_masked(key, set);
}

const markov::CoupledStats& Estimator::set_stats_masked(
    std::uint64_t key, std::span<const int> set) const {
  if (set_cache_.size() >= set_cap_) set_cache_.evict();
  bool fresh = false;
  markov::CoupledStats& stats = set_cache_.lookup(key, fresh);
  if (fresh) {
    // Resolve through the store by the sorted multiset of chain ids: on a
    // homogeneous platform every k-subset of workers lands on the same
    // store entry, and cells sharing chain content share the series math.
    auto& ids = scratch_ids_;
    ids.clear();
    for (int q : set) ids.push_back(chain_of_[static_cast<std::size_t>(q)]);
    std::sort(ids.begin(), ids.end());
    stats = store_->set_stats(ids);
  }
  return stats;
}

double Estimator::expected_comm_time(std::span<const CommNeed> needs) const {
  double e_comm = 0.0;
  long total = 0;
  for (const auto& n : needs) {
    total += n.slots;
    if (n.slots <= 0) continue;
    const auto& st = proc_stats(n.proc);
    e_comm = std::max(e_comm, st.expected_time(n.slots));
  }
  if (static_cast<int>(needs.size()) > platform_.ncom() && total > 0) {
    e_comm = std::max(e_comm, static_cast<double>(total) /
                                  static_cast<double>(platform_.ncom()));
  }
  return e_comm;
}

bool Estimator::comm_progress_monotone(std::span<const CommNeed> needs,
                                       std::span<const int> set) const {
  for (const auto& n : needs) {
    if (n.slots > 0 && !proc_stats(n.proc).expected_time_monotone_through(n.slots)) {
      return false;
    }
  }
  // Lower needs give a no-larger e_comm (a max of non-decreasing terms and
  // total/ncom), hence a no-larger survival depth ceil(e_comm).
  const double e_comm = expected_comm_time(needs);
  if (e_comm <= 0.0) return true;
  if (!(e_comm < static_cast<double>(std::numeric_limits<long>::max()))) return false;
  const long t = static_cast<long>(std::ceil(e_comm));
  for (int q : set) {
    if (!surv_of_[static_cast<std::size_t>(q)]->monotone_through(t)) return false;
  }
  return true;
}

IterationEstimate Estimator::evaluate(std::span<const CommNeed> needs,
                                      std::span<const int> set, long w) const {
  IterationEstimate out;

  const double e_comm = expected_comm_time(needs);
  double p_comm = 1.0;
  if (e_comm > 0.0) {
    const long t = static_cast<long>(std::ceil(e_comm));
    // Every enrolled worker must avoid DOWN through the whole phase, whether
    // or not it is receiving (paper §V-B).
    for (int q : set) p_comm *= p_no_down(q, t);
  }

  const auto& st = set_stats(set);
  out.p_success = p_comm * st.success_prob(w);
  out.e_time = e_comm + st.expected_time(w);
  return out;
}

}  // namespace tcgrid::sched
