// Unit tests for src/util: rng, cli, table, csv, parallel_for.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <vector>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/parallel.hpp"

namespace tcgrid {
namespace {

// ---------------------------------------------------------------- rng ----

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_DOUBLE_EQ(a.uniform01(), b.uniform01());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform01() == b.uniform01()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, SpawnStreamsAreDecorrelatedAndDeterministic) {
  util::Rng parent(7);
  util::Rng c1 = parent.spawn(1);
  util::Rng c2 = parent.spawn(2);
  util::Rng c1_again = util::Rng(7).spawn(1);
  EXPECT_DOUBLE_EQ(c1.uniform01(), c1_again.uniform01());
  // distinct streams: first values should not coincide
  EXPECT_NE(util::Rng(7).spawn(1).uniform01(), util::Rng(7).spawn(2).uniform01());
  (void)c2;
}

TEST(Rng, UniformRangeRespected) {
  util::Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(0.90, 0.99);
    EXPECT_GE(v, 0.90);
    EXPECT_LT(v, 0.99);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  util::Rng rng(4);
  std::set<long> seen;
  for (int i = 0; i < 2000; ++i) {
    const long v = rng.uniform_int(2, 20);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 20);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 19u);  // all values hit over 2000 draws
}

TEST(Rng, IndexCoversRange) {
  util::Rng rng(5);
  std::set<std::size_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.index(7));
  EXPECT_EQ(seen.size(), 7u);
  for (std::size_t v : seen) EXPECT_LT(v, 7u);
}

TEST(Rng, DeriveSeedIsInjectiveish) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 100; ++s) {
    for (std::uint64_t st = 0; st < 100; ++st) {
      seeds.insert(util::derive_seed(s, st));
    }
  }
  EXPECT_EQ(seeds.size(), 10000u);  // no collisions in a small grid
}

TEST(Rng, DeriveSeed2CellsNeverCollide) {
  // The scenario grid derives seeds with derive_seed2(seed, cell, s); unlike
  // the old additive scheme (cell * 1000 + s), no (cell, s) pair may alias a
  // neighbouring cell's stream even when s exceeds 1000.
  std::set<std::uint64_t> seen;
  for (std::uint64_t cell = 0; cell < 40; ++cell) {
    for (std::uint64_t s = 0; s < 1500; ++s) {
      EXPECT_TRUE(seen.insert(util::derive_seed2(42, cell, s)).second)
          << "collision at cell=" << cell << " s=" << s;
    }
  }
  // The exact aliasing pair of the old scheme: (cell, 1000) vs (cell+1, 0).
  EXPECT_NE(util::derive_seed2(42, 0, 1000), util::derive_seed2(42, 1, 0));
}

TEST(Rng, Uniform01MatchesDocumentedBitMapping) {
  // uniform01 is pinned to u01_from_bits(engine draw): one draw per call,
  // portable across standard libraries.
  util::Rng a(7), b(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = a.uniform01();
    EXPECT_EQ(u, util::u01_from_bits(b.engine()()));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01CutIsExactForAllCutpoints) {
  // The fast-path contract: u01_from_bits(x) < c  <=>  min(x, kU01Top) <
  // uniform01_cut(c), for every draw x — including the degenerate cut points
  // c = 0 (never) and c = 1 (always) and values straddling the rounding
  // boundary near 2^64.
  std::vector<double> cuts = {0.0,  1e-300, 0x1p-64, 0.25, 0.5,
                              0.95, 1.0 - 0x1p-53,   1.0,  1.0 + 1e-9};
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) cuts.push_back(rng.uniform01());

  std::vector<std::uint64_t> draws = {0,       1,       2,       ~0ULL,
                                      ~0ULL - 1, ~0ULL - 1024, ~0ULL - 2048};
  for (int i = 0; i < 2000; ++i) draws.push_back(rng.engine()());

  for (double c : cuts) {
    const std::uint64_t cut = util::uniform01_cut(c);
    for (std::uint64_t x : draws) {
      const bool reference = util::u01_from_bits(x) < c;
      const bool fast = std::min(x, util::kU01Top) < cut;
      EXPECT_EQ(reference, fast) << "c=" << c << " x=" << x;
    }
  }
}

TEST(Rng, WeibullPositive) {
  util::Rng rng(6);
  for (int i = 0; i < 100; ++i) EXPECT_GT(rng.weibull(0.7, 10.0), 0.0);
}

// ---------------------------------------------------------------- cli ----

TEST(Cli, ParsesSeparateValueForm) {
  const char* argv[] = {"prog", "--m", "10", "--name", "Y-IE"};
  util::Cli cli(5, argv, {"m", "name"});
  EXPECT_EQ(cli.get_long("m", 0), 10);
  EXPECT_EQ(cli.get("name", ""), "Y-IE");
}

TEST(Cli, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--wmin=3", "--eps=0.5"};
  util::Cli cli(3, argv, {"wmin", "eps"});
  EXPECT_EQ(cli.get_long("wmin", 0), 3);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.5);
}

TEST(Cli, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--full"};
  util::Cli cli(2, argv, {"full", "other"});
  EXPECT_TRUE(cli.get_bool("full"));
  EXPECT_FALSE(cli.get_bool("other"));
}

TEST(Cli, FlagFollowedByFlagHasEmptyValue) {
  const char* argv[] = {"prog", "--a", "--b", "1"};
  util::Cli cli(4, argv, {"a", "b"});
  EXPECT_TRUE(cli.has("a"));
  EXPECT_EQ(cli.value("a").value(), "");
  EXPECT_EQ(cli.get_long("b", 0), 1);
}

TEST(Cli, PositionalArguments) {
  const char* argv[] = {"prog", "input.txt", "--k", "2", "more"};
  util::Cli cli(5, argv, {"k"});
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "input.txt");
  EXPECT_EQ(cli.positional()[1], "more");
}

TEST(Cli, FallbacksUsedWhenAbsent) {
  const char* argv[] = {"prog"};
  util::Cli cli(1, argv, {"x"});
  EXPECT_EQ(cli.get("x", "def"), "def");
  EXPECT_EQ(cli.get_long("x", 9), 9);
  EXPECT_DOUBLE_EQ(cli.get_double("x", 1.5), 1.5);
}

TEST(Cli, BoolValueForms) {
  const char* argv[] = {"prog", "--a=true", "--b=0", "--c=yes", "--d=off"};
  util::Cli cli(5, argv, {"a", "b", "c", "d"});
  EXPECT_TRUE(cli.get_bool("a"));
  EXPECT_FALSE(cli.get_bool("b"));
  EXPECT_TRUE(cli.get_bool("c"));
  EXPECT_FALSE(cli.get_bool("d"));
}

TEST(Cli, PrefixEntryAcceptsEveryFlagWithThatPrefix) {
  const char* argv[] = {"prog", "--benchmark_filter=BM_x", "--benchmark_min_time=0.05"};
  util::Cli cli(3, argv, {"cap", "benchmark_*"});
  EXPECT_EQ(cli.get("benchmark_filter", ""), "BM_x");
}

TEST(CliDeathTest, UnknownFlagPrintsTheAcceptedFlagsAndExits2) {
  const char* argv[] = {"prog", "--cap", "10", "--cpa", "20"};
  EXPECT_EXIT(util::Cli(5, argv, {"cap", "seed"}), ::testing::ExitedWithCode(2),
              "unknown flag --cpa(.|\n)*accepted flags: --cap --seed");
}

TEST(CliDeathTest, HelpPrintsTheAcceptedFlagsAndExits2) {
  const char* argv[] = {"prog", "--help"};
  EXPECT_EXIT(util::Cli(2, argv, {"cap", "seed"}), ::testing::ExitedWithCode(2),
              "accepted flags: --cap --seed");
}

// -------------------------------------------------------------- table ----

TEST(Table, AlignsAndRenders) {
  util::Table t({"name", "value"});
  t.add_row({"alpha", "1.00"});
  t.add_row({"b", "-23.50"});
  const std::string s = t.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("-23.50"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ArityMismatchThrows) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, NumFormatsFixedPrecision) {
  EXPECT_EQ(util::Table::num(1.23456), "1.23");
  EXPECT_EQ(util::Table::num(-1.0, 1), "-1.0");
  EXPECT_EQ(util::Table::num(2.0, 0), "2");
}

// ---------------------------------------------------------------- csv ----

TEST(Csv, WritesHeaderAndRows) {
  util::CsvWriter csv({"a", "b"});
  csv.add_row({"1", "2"});
  EXPECT_EQ(csv.str(), "a,b\n1,2\n");
}

TEST(Csv, EscapesSpecials) {
  EXPECT_EQ(util::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(util::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, ArityMismatchThrows) {
  util::CsvWriter csv({"a"});
  EXPECT_THROW(csv.add_row({"1", "2"}), std::invalid_argument);
}

// -------------------------------------------------------- parallel_for ----

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  util::parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; }, 4);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SequentialWhenOneThread) {
  std::vector<int> order;
  util::parallel_for(10, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ParallelFor, HandlesZeroItems) {
  bool ran = false;
  util::parallel_for(0, [&](std::size_t) { ran = true; }, 4);
  EXPECT_FALSE(ran);
}

}  // namespace
}  // namespace tcgrid
