// PersistentChainStats: the disk-backed generation format behind the
// content-addressed chain-statistics cache (DESIGN.md §14).
//
// Every quantity ChainStatsStore derives — per-chain CoupledStats quads,
// set-level quads, survival tables — is a pure function of the chains' BIT
// content (plus eps), so the in-memory store's content keys are valid
// ACROSS processes: a chain computed by any process ever is the same chain,
// bit for bit, for every other process. This class makes that literal: a
// store directory holds append-only GENERATION files, each an immutable,
// checksummed snapshot of newly computed entries, mapped read-only and
// served in place:
//
//   * chain entries are keyed by the 4x64-bit pattern of (uu, ur, ru, rr) —
//     the exact key ChainStatsStore::intern uses — and carry the stats quad,
//     a flat survival prefix (served directly from the mapping: a seeded
//     table points its segments into it and reads them on the same
//     lock-free path as heap segments), and the UrRow frontier standing at
//     the last entry,
//     so growth past the mapped prefix resumes the exact advance sequence;
//   * set entries are keyed by the sorted multiset of chain content keys
//     (ids are store-local and meaningless across processes);
//   * a generation publishes atomically — write-temp, fsync, rename, fsync
//     dir (serve/checkpoint.cpp's discipline) — and carries a suffix
//     footer (magic + counts + file size + checksum), so a torn file never
//     loads: any validation failure skips the whole generation, counted,
//     never crashing, and the next flush re-persists whatever it held;
//   * generations are never unmapped while the object lives: refresh()
//     only ever ADDS mappings, so pointers served to seeded tables — kept
//     by lock-free readers even after a straddling segment is re-pointed
//     to heap — stay valid for the object's (and therefore the owning
//     store's) lifetime.
//
// Concurrency: lookups and refresh take one mutex (they run only on store
// misses — cold construction — never on the estimator hot path); survival
// reads through seeded tables are lock-free off the mapping. flush_from is
// additionally serialized by a flush mutex and safe concurrently with
// lookups and with the exporting store's ongoing mutation. Cross-process:
// any number of readers and writers may share one directory — writers
// publish distinct file names, duplicated entries across generations are
// identical by purity and deduplicated at load (longest survival wins).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "markov/chain_stats.hpp"
#include "markov/series.hpp"
#include "markov/spectral.hpp"
#include "util/mmap_file.hpp"

namespace tcgrid::markov {

class PersistentChainStats {
 public:
  /// Opens (creating if needed) the store directory and maps every valid
  /// generation in it. `eps`: the truncation precision this store's entries
  /// were computed at — generations recorded under a different eps are
  /// skipped at load (they answer different questions), and flush stamps
  /// the value into every generation it writes. Throws std::runtime_error
  /// when the directory cannot be created or opened; torn or foreign files
  /// inside it are skipped, never fatal.
  PersistentChainStats(std::string dir, double eps);

  PersistentChainStats(const PersistentChainStats&) = delete;
  PersistentChainStats& operator=(const PersistentChainStats&) = delete;

  /// One chain's persisted state. `survival` points into a read-only
  /// generation mapping owned by this object — valid for its lifetime.
  struct ChainHit {
    bool has_stats = false;
    CoupledStats stats;
    const double* survival = nullptr;
    long survival_len = 0;
    UrRow row;  ///< stands at entry survival_len-1
  };

  /// Lookup by chain content key (ChainStatsStore's intern key). Returns
  /// false on miss. Counts a hit/miss either way.
  bool find_chain(const std::array<std::uint64_t, 4>& key, ChainHit& out) const;

  /// Lookup by flattened sorted multiset key (4 words per chain, chains in
  /// content order — ChainStatsStore::ExportedSet::key's layout). On hit,
  /// writes the quad into `out` and returns true.
  bool find_set(std::span<const std::uint64_t> key, CoupledStats& out) const;

  /// Map any generation published (by this or another process) since the
  /// constructor or the last refresh/flush. Returns the number of newly
  /// mapped generations. Existing mappings are untouched.
  std::size_t refresh();

  /// Persist every exported entry of `store` not already on disk as one new
  /// generation; a flush with nothing new writes no file. Returns the
  /// number of entries written. The new generation is also mapped and
  /// indexed here (so repeated flushes are incremental) and becomes visible
  /// to other processes' refresh(). Thread-safe; serialized internally.
  std::size_t flush_from(const ChainStatsStore& store);

  struct Counters {
    std::size_t generations = 0;    ///< mapped generation files
    std::size_t mapped_bytes = 0;   ///< bytes of read-only mappings
    std::size_t chains = 0;         ///< distinct chain keys indexed
    std::size_t sets = 0;           ///< distinct multiset keys indexed
    std::size_t survival_doubles = 0;  ///< survival entries served from disk
    std::size_t chain_hits = 0;
    std::size_t chain_misses = 0;
    std::size_t set_hits = 0;
    std::size_t set_misses = 0;
    std::size_t skipped_generations = 0;  ///< torn/foreign/eps-mismatched
    std::size_t flushes = 0;           ///< generations written by this object
    std::size_t flushed_entries = 0;   ///< entries across those generations
  };
  [[nodiscard]] Counters counters() const;

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] double eps() const noexcept { return eps_; }

  /// Fault injection for the crash-safety tests: the next flush misbehaves
  /// as specified, then the fault resets to None. TornTemp: stop after
  /// writing `keep_bytes` of the temp file, never publish (a crash before
  /// rename). PublishTruncated: publish a generation truncated to
  /// `keep_bytes` (a torn write that made it to the final name — the state
  /// the footer checksum exists to catch); negative counts back from the
  /// full image size. SkipPublish: write the full temp
  /// file but crash before rename.
  struct FlushFault {
    enum class Kind { None, TornTemp, PublishTruncated, SkipPublish };
    Kind kind = Kind::None;
    long keep_bytes = 0;
  };
  void set_flush_fault_for_test(FlushFault fault);

 private:
  struct SetVal {
    CoupledStats stats;
  };

  /// Map + validate + index one generation file (caller holds mu_).
  /// Invalid files count as skipped; `loaded_` remembers every name either
  /// way so a torn file is not re-validated on every refresh.
  void load_generation(const std::string& name);
  /// Scan the directory for unseen generation files (caller holds mu_).
  std::size_t load_new_generations();
  void update_gauges() const;  ///< caller holds mu_

  std::string dir_;
  double eps_;

  mutable std::mutex mu_;  ///< index, generations, counters
  std::vector<util::MappedFile> generations_;  ///< never shrinks (see header)
  std::map<std::string, bool> loaded_;  ///< file name -> mapped ok
  std::map<std::array<std::uint64_t, 4>, ChainHit> chains_;
  std::map<std::vector<std::uint64_t>, SetVal> sets_;

  std::mutex flush_mu_;  ///< serializes flush_from in-process
  std::uint64_t flush_seq_ = 0;
  FlushFault fault_;  ///< under flush_mu_

  mutable std::size_t chain_hits_ = 0;
  mutable std::size_t chain_misses_ = 0;
  mutable std::size_t set_hits_ = 0;
  mutable std::size_t set_misses_ = 0;
  std::size_t skipped_ = 0;
  std::size_t mapped_bytes_ = 0;
  std::size_t survival_doubles_ = 0;
  std::size_t flushes_ = 0;
  std::size_t flushed_entries_ = 0;
};

}  // namespace tcgrid::markov
