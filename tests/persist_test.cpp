// Tests of the persistent content-addressed chain-statistics cache
// (markov::PersistentChainStats; DESIGN.md §14):
//
//   * round-trip: quads and survival tables flushed by one store are found
//     bit-identical by a fresh process-equivalent (new mapping, new store),
//     with survival served straight from the read-only mapping (no
//     survival bytes allocated) and growth past the mapped prefix resuming
//     the exact advance sequence within the from-scratch storage bound;
//   * flushes are incremental (nothing new -> no file), the longest
//     survival prefix wins across generations, and refresh() picks up
//     generations published by other writers;
//   * crash safety: a flush killed before publish (torn temp, complete temp
//     never renamed) leaves no new generation and nothing broken; a torn
//     file that reached the final name (fault-injected short publish, or a
//     flipped byte) is skipped at load — counted, never fatal — and a real
//     kill -9 loop against a forked writer always leaves a loadable store;
//   * sweep bit-identity: run_trial for all 25 heuristics x 4 availability
//     families agrees bit for bit between no store, a cold store, a
//     warm-same-process store and a warm store read by a forked fresh
//     process;
//   * concurrent readers and writers on one cache (the TSan target),
//     including readers of a mapped prefix while the first growth past it
//     re-points the straddling segment to heap;
//   * api::Session: clear_caches() flushes before dropping the heap, so an
//     evicted session re-reads its own warmth from disk.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "markov/chain_stats.hpp"
#include "markov/persistent_stats.hpp"
#include "platform/scenario.hpp"
#include "platform/semi_markov.hpp"
#include "scen/scen.hpp"
#include "sched/registry.hpp"
#include "util/mmap_file.hpp"

namespace tcgrid {
namespace {

namespace fs = std::filesystem;
using markov::ChainId;
using markov::ChainStatsStore;
using markov::CoupledStats;
using markov::PersistentChainStats;

constexpr double kEps = 1e-6;

/// Fresh store directory per test (removed up front, created by the store).
std::string fresh_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "tcgrid_persist_" + tag + "_" +
                          std::to_string(::getpid());
  fs::remove_all(dir);
  return dir;
}

markov::UrMatrix ur_of(double uu, double rr) {
  return markov::ur_submatrix(markov::TransitionMatrix::from_self_loops(uu, rr, 0.9));
}

std::array<std::uint64_t, 4> key_of(const markov::UrMatrix& m) {
  return {std::bit_cast<std::uint64_t>(m.uu), std::bit_cast<std::uint64_t>(m.ur),
          std::bit_cast<std::uint64_t>(m.ru), std::bit_cast<std::uint64_t>(m.rr)};
}

/// Exact-equality quad comparison: persisted doubles must round-trip bit
/// for bit, so plain == is the assertion, not a tolerance.
void expect_same_stats(const CoupledStats& a, const CoupledStats& b) {
  EXPECT_EQ(a.p_plus, b.p_plus);
  EXPECT_EQ(a.ec, b.ec);
  EXPECT_EQ(a.failure_free, b.failure_free);
  EXPECT_EQ(a.converged, b.converged);
}

// ---------------------------------------------------------------- round trip ----

TEST(PersistentStore, RoundTripChainAndSetQuads) {
  const std::string dir = fresh_dir("roundtrip");
  const auto a = ur_of(0.95, 0.90);
  const auto b = ur_of(0.80, 0.85);

  // Reference values from a plain in-memory store.
  ChainStatsStore ref(kEps);
  const ChainId ra = ref.intern(a);
  const ChainId rb = ref.intern(b);
  const CoupledStats ref_a = ref.chain_stats(ra);
  const std::array<ChainId, 3> ref_set{std::min(ra, rb), std::max(ra, rb),
                                       std::max(ra, rb)};
  const CoupledStats ref_ab = ref.set_stats(ref_set);

  {
    auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
    ChainStatsStore store(kEps, persist);
    const ChainId ia = store.intern(a);
    const ChainId ib = store.intern(b);
    (void)store.chain_stats(ia);
    (void)store.chain_stats(ib);
    const std::array<ChainId, 3> set{std::min(ia, ib), std::max(ia, ib),
                                     std::max(ia, ib)};
    (void)store.set_stats(set);
    EXPECT_GT(persist->flush_from(store), 0u);
  }

  // "Fresh process": a new mapping over the same directory.
  PersistentChainStats reopened(dir, kEps);
  const auto counters = reopened.counters();
  EXPECT_EQ(counters.generations, 1u);
  EXPECT_EQ(counters.chains, 2u);
  EXPECT_EQ(counters.sets, 1u);
  EXPECT_EQ(counters.skipped_generations, 0u);

  PersistentChainStats::ChainHit hit;
  ASSERT_TRUE(reopened.find_chain(key_of(a), hit));
  ASSERT_TRUE(hit.has_stats);
  expect_same_stats(hit.stats, ref_a);

  // Set key: content keys of the multiset {a, b, b}, sorted in content
  // order, 4 words per chain — exactly ExportedSet::key's layout.
  std::vector<std::pair<std::array<std::uint64_t, 4>, const markov::UrMatrix*>>
      members{{key_of(a), &a}, {key_of(b), &b}, {key_of(b), &b}};
  std::sort(members.begin(), members.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<std::uint64_t> set_key;
  for (const auto& [k, m] : members) set_key.insert(set_key.end(), k.begin(), k.end());
  CoupledStats set_stats;
  ASSERT_TRUE(reopened.find_set(set_key, set_stats));
  expect_same_stats(set_stats, ref_ab);

  // And through a store layered over it: intern answers with seeded stats.
  auto persist2 = std::make_shared<PersistentChainStats>(dir, kEps);
  ChainStatsStore warm(kEps, persist2);
  const ChainId wa = warm.intern(a);
  expect_same_stats(warm.chain_stats(wa), ref_a);
  EXPECT_GT(persist2->counters().chain_hits, 0u);
}

TEST(PersistentStore, SurvivalServedFromMappingAndResumesExactly) {
  const std::string dir = fresh_dir("survival");
  const auto m = ur_of(0.97, 0.92);
  constexpr long kMapped = 200;
  constexpr long kDeep = 500;

  ChainStatsStore ref(kEps);
  markov::ChainSurvival& ref_surv = ref.survival(ref.intern(m));
  (void)ref_surv.grow_to(kDeep);

  {
    auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
    ChainStatsStore store(kEps, persist);
    const ChainId id = store.intern(m);
    (void)store.survival(id).grow_to(kMapped - 1);  // publishes 0..kMapped-1
    EXPECT_GT(persist->flush_from(store), 0u);
  }

  auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
  PersistentChainStats::ChainHit hit;
  ASSERT_TRUE(persist->find_chain(key_of(m), hit));
  ASSERT_EQ(hit.survival_len, kMapped);

  ChainStatsStore warm(kEps, persist);
  ChainStatsStore cold(kEps);
  (void)cold.intern(m);
  markov::ChainSurvival& surv = warm.survival(warm.intern(m));
  // The seeded table IS the mapping: no survival bytes (a warm intern costs
  // exactly what a cold one does), full prefix published immediately.
  const std::size_t seeded_bytes = warm.counters().bytes;
  EXPECT_EQ(seeded_bytes, cold.counters().bytes);
  EXPECT_EQ(surv.published(), kMapped);
  for (long t = 0; t < kMapped; ++t) {
    EXPECT_EQ(surv.at(t), ref_surv.at(t)) << "t=" << t;
  }
  // The seed records the mapping's monotone prefix (here all of it).
  EXPECT_TRUE(surv.monotone_through(kMapped - 1));
  EXPECT_FALSE(surv.monotone_through(kMapped));
  // Growth past the mapped frontier resumes the exact advance sequence.
  EXPECT_EQ(surv.grow_to(kDeep - 1), ref_surv.at(kDeep - 1));
  EXPECT_TRUE(surv.monotone_through(kDeep - 1));
  for (long t = kMapped; t < kDeep; ++t) {
    EXPECT_EQ(surv.at(t), ref_surv.at(t)) << "t=" << t;
  }
  for (long t = 0; t < kMapped; ++t) {  // the re-pointed straddler's copy
    EXPECT_EQ(surv.at(t), ref_surv.at(t)) << "t=" << t;
  }
  // Growth past the prefix heap-allocates only the straddling segment and
  // its successors: within the from-scratch storage bound.
  const auto published = static_cast<std::size_t>(surv.published());
  EXPECT_LE(warm.counters().bytes - seeded_bytes,
            2 * sizeof(double) * published +
                sizeof(double) * markov::ChainSurvival::kFirstSegment);
}

TEST(PersistentStore, SeededSurvivalKeepsANonMonotonePrefixShort) {
  // A failure-free chain whose float64 survival table rises by an ulp: a
  // table seeded from disk must report the same monotone prefix as one
  // grown in memory.
  const std::string dir = fresh_dir("drift");
  const markov::TransitionMatrix ff({{{0.9, 0.1, 0.0}, {1.0 - 0.9081, 0.9081, 0.0},
                                      {0.5, 0.5, 0.0}}});
  const auto m = markov::ur_submatrix(ff);
  ChainStatsStore ref(kEps);
  markov::ChainSurvival& ref_surv = ref.survival(ref.intern(m));
  (void)ref_surv.grow_to(63);
  long rise = -1;
  for (long t = 1; t < 64 && rise < 0; ++t) {
    if (ref_surv.at(t) > ref_surv.at(t - 1)) rise = t;
  }
  ASSERT_GT(rise, 0);
  {
    auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
    ChainStatsStore store(kEps, persist);
    (void)store.survival(store.intern(m)).grow_to(63);
    EXPECT_GT(persist->flush_from(store), 0u);
  }
  auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
  ChainStatsStore warm(kEps, persist);
  markov::ChainSurvival& surv = warm.survival(warm.intern(m));
  ASSERT_EQ(surv.published(), 64);
  EXPECT_TRUE(surv.monotone_through(rise - 1));
  EXPECT_FALSE(surv.monotone_through(rise));
  (void)surv.grow_to(200);  // growth past the mapping cannot repair it
  EXPECT_FALSE(surv.monotone_through(rise));
}

TEST(PersistentStore, FlushIsIncrementalAndLongestSurvivalWins) {
  const std::string dir = fresh_dir("incremental");
  const auto m = ur_of(0.96, 0.91);

  auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
  {
    ChainStatsStore store(kEps, persist);
    (void)store.survival(store.intern(m)).grow_to(99);  // publishes 100
    EXPECT_GT(persist->flush_from(store), 0u);
    // Nothing new since: the second flush writes no generation.
    EXPECT_EQ(persist->flush_from(store), 0u);
    EXPECT_EQ(persist->counters().generations, 1u);
  }
  {
    // A second store grows the same chain deeper: the flush persists the
    // longer prefix (and only that — the chain is otherwise known).
    ChainStatsStore store(kEps, persist);
    (void)store.survival(store.intern(m)).grow_to(299);  // publishes 300
    EXPECT_GT(persist->flush_from(store), 0u);
    EXPECT_EQ(persist->counters().generations, 2u);
  }

  PersistentChainStats reopened(dir, kEps);
  PersistentChainStats::ChainHit hit;
  ASSERT_TRUE(reopened.find_chain(key_of(m), hit));
  EXPECT_EQ(hit.survival_len, 300);
  EXPECT_EQ(reopened.counters().skipped_generations, 0u);

  ChainStatsStore ref(kEps);
  markov::ChainSurvival& ref_surv = ref.survival(ref.intern(m));
  (void)ref_surv.grow_to(300);
  for (long t = 0; t < 300; ++t) EXPECT_EQ(hit.survival[t], ref_surv.at(t));
}

TEST(PersistentStore, RefreshSeesOtherWritersGenerations) {
  const std::string dir = fresh_dir("refresh");
  const auto m = ur_of(0.93, 0.88);

  PersistentChainStats reader(dir, kEps);
  PersistentChainStats::ChainHit hit;
  EXPECT_FALSE(reader.find_chain(key_of(m), hit));

  {
    // "Another process": a second object on the same directory.
    auto writer = std::make_shared<PersistentChainStats>(dir, kEps);
    ChainStatsStore store(kEps, writer);
    (void)store.chain_stats(store.intern(m));
    EXPECT_GT(writer->flush_from(store), 0u);
  }

  EXPECT_FALSE(reader.find_chain(key_of(m), hit));  // not yet refreshed
  EXPECT_EQ(reader.refresh(), 1u);
  EXPECT_TRUE(reader.find_chain(key_of(m), hit));
  EXPECT_TRUE(hit.has_stats);
}

TEST(PersistentStore, EpsMismatchedGenerationsAreSkipped) {
  const std::string dir = fresh_dir("eps");
  const auto m = ur_of(0.94, 0.89);
  {
    auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
    ChainStatsStore store(kEps, persist);
    (void)store.chain_stats(store.intern(m));
    EXPECT_GT(persist->flush_from(store), 0u);
  }
  // A store at another precision answers different questions: the
  // generation is skipped wholesale.
  PersistentChainStats other(dir, 1e-9);
  EXPECT_EQ(other.counters().chains, 0u);
  EXPECT_EQ(other.counters().skipped_generations, 1u);
}

// -------------------------------------------------------------- crash safety ----

/// Populate a store with a couple of computed chains for the fault tests.
void populate(ChainStatsStore& store) {
  const auto a = ur_of(0.95, 0.90);
  const auto b = ur_of(0.85, 0.80);
  (void)store.chain_stats(store.intern(a));
  (void)store.survival(store.intern(a)).grow_to(150);
  (void)store.chain_stats(store.intern(b));
}

std::size_t generation_files(const std::string& dir) {
  return tcgrid::util::list_dir(dir, "gen-", ".tcs").size();
}

TEST(CrashSafety, TornTempNeverPublishes) {
  const std::string dir = fresh_dir("torntemp");
  auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
  ChainStatsStore store(kEps, persist);
  populate(store);

  persist->set_flush_fault_for_test(
      {PersistentChainStats::FlushFault::Kind::TornTemp, /*keep_bytes=*/64});
  EXPECT_EQ(persist->flush_from(store), 0u);
  EXPECT_EQ(generation_files(dir), 0u);

  // The store is untouched for every other reader, and the next (healthy)
  // flush persists everything the torn one lost.
  {
    PersistentChainStats reopened(dir, kEps);
    EXPECT_EQ(reopened.counters().chains, 0u);
    EXPECT_EQ(reopened.counters().skipped_generations, 0u);
  }
  EXPECT_GT(persist->flush_from(store), 0u);
  PersistentChainStats healthy(dir, kEps);
  EXPECT_EQ(healthy.counters().chains, 2u);
  EXPECT_EQ(healthy.counters().skipped_generations, 0u);
}

TEST(CrashSafety, CrashBeforeRenameLeavesOnlyIgnoredTemp) {
  const std::string dir = fresh_dir("skippub");
  auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
  ChainStatsStore store(kEps, persist);
  populate(store);

  persist->set_flush_fault_for_test(
      {PersistentChainStats::FlushFault::Kind::SkipPublish, 0});
  EXPECT_EQ(persist->flush_from(store), 0u);
  EXPECT_EQ(generation_files(dir), 0u);  // the stray .tmp is not a generation

  PersistentChainStats reopened(dir, kEps);
  EXPECT_EQ(reopened.counters().chains, 0u);
  EXPECT_EQ(reopened.counters().skipped_generations, 0u);
}

TEST(CrashSafety, TruncatedPublishedGenerationIsSkippedAtEveryLength) {
  // A short write that reached the final name (the case the suffix footer
  // exists for): whatever the torn length — inside the header, inside the
  // records, just shy of the footer — the generation is skipped, counted,
  // and recovery is one healthy flush away.
  for (const long keep : {0L, 40L, 95L, 96L, 300L, -9L /* file size - 9 */}) {
    const std::string dir = fresh_dir("trunc" + std::to_string(keep));
    {
      auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
      ChainStatsStore store(kEps, persist);
      populate(store);
      persist->set_flush_fault_for_test(
          {PersistentChainStats::FlushFault::Kind::PublishTruncated, keep});
      EXPECT_EQ(persist->flush_from(store), 0u);
      EXPECT_EQ(persist->counters().skipped_generations, 1u)
          << "keep=" << keep;  // the writer re-indexes through the load path
    }
    ASSERT_EQ(generation_files(dir), 1u);

    PersistentChainStats reopened(dir, kEps);
    EXPECT_EQ(reopened.counters().chains, 0u) << "keep=" << keep;
    EXPECT_EQ(reopened.counters().skipped_generations, 1u) << "keep=" << keep;

    // Recovery: a healthy flush from a fresh computation repersists all.
    auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
    ChainStatsStore store(kEps, persist);
    populate(store);
    EXPECT_GT(persist->flush_from(store), 0u);
    PersistentChainStats healthy(dir, kEps);
    EXPECT_EQ(healthy.counters().chains, 2u) << "keep=" << keep;
  }
}

TEST(CrashSafety, FlippedByteFailsChecksumAndIsSkipped) {
  const std::string dir = fresh_dir("bitflip");
  {
    auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
    ChainStatsStore store(kEps, persist);
    populate(store);
    EXPECT_GT(persist->flush_from(store), 0u);
  }
  const auto names = tcgrid::util::list_dir(dir, "gen-", ".tcs");
  ASSERT_EQ(names.size(), 1u);
  const std::string path = dir + "/" + names[0];
  const auto size = fs::file_size(path);
  {
    // Flip one bit in the middle of the file (the record/blob region):
    // structure stays parseable, the checksum must catch it.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&byte, 1);
  }
  PersistentChainStats reopened(dir, kEps);
  EXPECT_EQ(reopened.counters().chains, 0u);
  EXPECT_EQ(reopened.counters().skipped_generations, 1u);
}

TEST(CrashSafety, KillNineMidFlushLoopLeavesLoadableStore) {
  // The real thing: a forked writer flushing generations in a tight loop,
  // kill -9'd at arbitrary points. The atomic-publish discipline promises
  // the directory NEVER holds a torn generation — every published file
  // loads, whatever the kill timing.
  const std::string dir = fresh_dir("kill9");
  const int kRounds = 4;
  for (int round = 0; round < kRounds; ++round) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: distinct chains per iteration so every flush writes a fresh
      // generation with a survival blob big enough to tear.
      try {
        auto persist = std::make_shared<PersistentChainStats>(dir, kEps);
        for (int i = 0;; ++i) {
          ChainStatsStore store(kEps, persist);
          for (int c = 0; c < 4; ++c) {
            const double uu = 0.90 + 1e-5 * (round * 1000 + i * 10 + c);
            const ChainId id = store.intern(ur_of(uu, 0.85));
            (void)store.chain_stats(id);
            (void)store.survival(id).grow_to(2'000);
          }
          (void)persist->flush_from(store);
        }
      } catch (...) {
        _exit(3);
      }
    }
    // Parent: let the child get into the flush loop, then kill -9.
    ::usleep(20'000 + 30'000 * round);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(wstatus));

    PersistentChainStats reopened(dir, kEps);
    // Whatever made it to a final name is whole; torn temps don't count.
    EXPECT_EQ(reopened.counters().skipped_generations, 0u) << "round " << round;
    EXPECT_EQ(reopened.counters().generations, generation_files(dir));
  }

  // The surviving entries are the exact doubles a clean computation yields.
  PersistentChainStats persisted(dir, kEps);
  if (persisted.counters().chains > 0) {
    const auto m = ur_of(0.90, 0.85);  // round 0, i 0, c 0
    PersistentChainStats::ChainHit hit;
    if (persisted.find_chain(key_of(m), hit) && hit.has_stats) {
      ChainStatsStore ref(kEps);
      expect_same_stats(hit.stats, ref.chain_stats(ref.intern(m)));
    }
  }
}

// --------------------------------------------------------- sweep bit-identity ----

/// The registered availability families plus a trace family (trace families
/// need a concrete timeline; registered once on first use).
const std::vector<std::string>& sweep_families() {
  static const std::vector<std::string> names = [] {
    platform::ScenarioParams params;
    params.seed = 61;
    const auto scenario = platform::make_scenario(params);
    auto src = scen::availability_family("markov")->make_source(
        scenario.platform, 777, platform::InitialStates::Stationary);
    auto timeline =
        std::make_shared<platform::StateTimeline>(platform::record(*src, 400));
    scen::register_availability_family(scen::make_trace_family(
        "persist-trace", scen::TraceFamilyParams{.timeline = std::move(timeline)}));
    return std::vector<std::string>{"markov", "weibull", "daynight", "persist-trace"};
  }();
  return names;
}

std::vector<std::string> all_heuristics() {
  std::vector<std::string> names = sched::all_heuristic_names();
  for (const auto& n : sched::extension_heuristic_names()) names.push_back(n);
  return names;
}

void expect_identical_results(const sim::SimulationResult& a,
                              const sim::SimulationResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.iterations_completed, b.iterations_completed);
  EXPECT_EQ(a.total_restarts, b.total_restarts);
  EXPECT_EQ(a.total_reconfigurations, b.total_reconfigurations);
  EXPECT_EQ(a.idle_slots, b.idle_slots);
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].start_slot, b.iterations[i].start_slot);
    EXPECT_EQ(a.iterations[i].end_slot, b.iterations[i].end_slot);
    EXPECT_EQ(a.iterations[i].restarts, b.iterations[i].restarts);
  }
}

/// Order-sensitive digest over the fields expect_identical_results checks —
/// the cross-process comparison (a forked child can't run EXPECTs the
/// parent sees).
std::uint64_t fold_result(std::uint64_t h, const sim::SimulationResult& r) {
  auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(r.success ? 1 : 0);
  mix(static_cast<std::uint64_t>(r.makespan));
  mix(static_cast<std::uint64_t>(r.iterations_completed));
  mix(static_cast<std::uint64_t>(r.total_restarts));
  mix(static_cast<std::uint64_t>(r.total_reconfigurations));
  mix(static_cast<std::uint64_t>(r.idle_slots));
  for (const auto& it : r.iterations) {
    mix(static_cast<std::uint64_t>(it.start_slot));
    mix(static_cast<std::uint64_t>(it.end_slot));
    mix(static_cast<std::uint64_t>(it.restarts));
  }
  return h;
}

TEST(SweepBitIdentity, StoreColdWarmSameProcessAndWarmCrossProcess) {
  const std::string dir = fresh_dir("sweep");
  platform::ScenarioParams params;
  params.seed = 33;
  params.wmin = 2;
  params.iterations = 3;

  api::Options nostore_opts;
  nostore_opts.slot_cap = 100'000;
  api::Options store_opts = nostore_opts;
  store_opts.store_dir = dir;

  const auto heuristics = all_heuristics();
  std::uint64_t reference_digest = 0xcbf29ce484222325ull;

  for (const auto& family : sweep_families()) {
    scen::ScenarioSpace space;
    space.availability = family;
    api::Session nostore(nostore_opts);
    std::vector<sim::SimulationResult> reference;
    {
      // Cold store: the directory starts empty, everything computes and
      // interns exactly as without a store.
      api::Session cold(store_opts);
      for (const auto& heuristic : heuristics) {
        SCOPED_TRACE(family + " / " + heuristic + " (cold)");
        const auto a = nostore.run_trial(space, params, heuristic, 0);
        const auto b = cold.run_trial(space, params, heuristic, 0);
        expect_identical_results(a, b);
        reference_digest = fold_result(reference_digest, a);
        reference.push_back(a);
      }
      // Destruction flushes this family's chains as a generation.
    }
    {
      // Warm, same process: a brand-new session whose misses are answered
      // from the directory the cold session just flushed.
      api::Session warm(store_opts);
      for (std::size_t h = 0; h < heuristics.size(); ++h) {
        SCOPED_TRACE(family + " / " + heuristics[h] + " (warm)");
        expect_identical_results(warm.run_trial(space, params, heuristics[h], 0),
                                 reference[h]);
      }
      EXPECT_GT(warm.persistent_store_counters().chain_hits, 0u)
          << family << ": warm session never hit the store";
    }
  }

  // Warm, cross-process: a forked child re-runs the whole grid against the
  // populated directory and reports its digest over a pipe.
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::close(pipe_fds[0]);
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::size_t hits = 0;
    try {
      for (const auto& family : sweep_families()) {
        scen::ScenarioSpace space;
        space.availability = family;
        api::Session warm(store_opts);
        for (const auto& heuristic : heuristics) {
          digest = fold_result(digest, warm.run_trial(space, params, heuristic, 0));
        }
        hits += warm.persistent_store_counters().chain_hits;
      }
    } catch (...) {
      _exit(3);
    }
    if (hits == 0) _exit(4);  // a "warm" child that never touched disk
    const ssize_t n = ::write(pipe_fds[1], &digest, sizeof digest);
    _exit(n == sizeof digest ? 0 : 5);
  }
  ::close(pipe_fds[1]);
  std::uint64_t child_digest = 0;
  ASSERT_EQ(::read(pipe_fds[0], &child_digest, sizeof child_digest),
            static_cast<ssize_t>(sizeof child_digest));
  ::close(pipe_fds[0]);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 0);
  EXPECT_EQ(child_digest, reference_digest);
}

// ----------------------------------------------------------------- concurrency ----

TEST(Concurrency, ReadersAndWritersShareOneCache) {
  // The TSan target: writer threads computing and flushing overlapping
  // chain populations against ONE persistent cache, reader threads
  // concurrently constructing stores over it, interning, growing seeded
  // survival tables and doing raw lookups.
  const std::string dir = fresh_dir("concurrent");
  auto persist = std::make_shared<PersistentChainStats>(dir, kEps);

  constexpr int kWriters = 2;
  constexpr int kReaders = 2;
  constexpr int kIters = 12;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < kIters; ++i) {
        ChainStatsStore store(kEps, persist);
        // Overlapping populations: chain (i) is shared by both writers,
        // chain (w, i) is private — both dedup paths run concurrently.
        const ChainId shared_id = store.intern(ur_of(0.95, 0.90 + 1e-4 * i));
        const ChainId mine = store.intern(ur_of(0.90 + 1e-3 * w, 0.85 + 1e-4 * i));
        (void)store.chain_stats(shared_id);
        (void)store.survival(shared_id).grow_to(200 + 10 * i);
        (void)store.chain_stats(mine);
        const std::array<ChainId, 2> set{std::min(shared_id, mine),
                                         std::max(shared_id, mine)};
        (void)store.set_stats(set);
        (void)persist->flush_from(store);
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        (void)persist->refresh();
        PersistentChainStats::ChainHit hit;
        const auto m = ur_of(0.95, 0.90 + 1e-4 * i);
        if (persist->find_chain(key_of(m), hit) && hit.survival_len > 0) {
          // Lock-free read of the mapped prefix through a seeded store,
          // while this thread's first growth copies the segment straddling
          // the mapped frontier to heap and re-points it (every mapped
          // length here, 201..311, straddles the 192..447 segment).
          ChainStatsStore view(kEps, persist);
          markov::ChainSurvival& surv = view.survival(view.intern(m));
          EXPECT_GE(surv.published(), hit.survival_len);
          std::atomic<bool> grown{false};
          std::thread prefix_reader([&] {
            long mismatches = 0;
            do {
              for (long t = 0; t < hit.survival_len; ++t) {
                mismatches += std::bit_cast<std::uint64_t>(surv.at(t)) !=
                              std::bit_cast<std::uint64_t>(hit.survival[t]);
              }
            } while (!grown.load(std::memory_order_acquire));
            EXPECT_EQ(mismatches, 0);
          });
          (void)surv.grow_to(400);
          grown.store(true, std::memory_order_release);
          prefix_reader.join();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Every distinct chain either writer computed is on disk, once.
  PersistentChainStats reopened(dir, kEps);
  EXPECT_EQ(reopened.counters().skipped_generations, 0u);
  EXPECT_GE(reopened.counters().chains, static_cast<std::size_t>(kIters));
}

// -------------------------------------------------------------------- session ----

TEST(Session, EvictionKeepsWarmthOnDisk) {
  // clear_caches() flushes BEFORE dropping the heap (the serve daemon's
  // DRAINING eviction rests on this): the next sweep re-interns against the
  // directory and answers from disk instead of recomputing.
  const std::string dir = fresh_dir("evict");
  platform::ScenarioParams params;
  params.seed = 7;
  params.iterations = 3;
  scen::ScenarioSpace space;

  api::Options opts;
  opts.slot_cap = 50'000;
  opts.store_dir = dir;
  api::Session session(opts);

  const auto first = session.run_trial(space, params, "IE", 0);
  const auto after_first = session.persistent_store_counters();
  EXPECT_EQ(after_first.chain_hits, 0u);  // cold directory: all misses

  session.clear_caches();  // evict; must flush first
  EXPECT_GT(session.persistent_store_counters().flushed_entries, 0u);

  const auto second = session.run_trial(space, params, "IE", 0);
  expect_identical_results(first, second);
  const auto after_second = session.persistent_store_counters();
  EXPECT_GT(after_second.chain_hits, 0u) << "post-eviction run never hit the store";
}

}  // namespace
}  // namespace tcgrid
