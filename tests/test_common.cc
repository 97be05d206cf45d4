// Unit tests for the hash table abstraction (paper section 5.6.3),
// the CRC used by the update protocol, and the clocks.
#include <gtest/gtest.h>

#include <set>

#include "src/common/checksum.h"
#include "src/common/clock.h"
#include "src/common/hash_table.h"
#include "src/common/random.h"
#include "src/common/retry.h"

namespace moira {
namespace {

TEST(HashTable, StoreFetchRemove) {
  MrHashTable<int> table;
  EXPECT_TRUE(table.empty());
  table.Store("alpha", 1);
  table.Store("beta", 2);
  EXPECT_EQ(2u, table.size());
  EXPECT_EQ(1, *table.Fetch("alpha"));
  EXPECT_EQ(2, *table.Fetch("beta"));
  EXPECT_EQ(nullptr, table.Fetch("gamma"));
  EXPECT_TRUE(table.Remove("alpha"));
  EXPECT_FALSE(table.Remove("alpha"));
  EXPECT_EQ(nullptr, table.Fetch("alpha"));
  EXPECT_EQ(1u, table.size());
}

TEST(HashTable, StoreReplacesExisting) {
  MrHashTable<std::string> table;
  table.Store("key", "old");
  table.Store("key", "new");
  EXPECT_EQ(1u, table.size());
  EXPECT_EQ("new", *table.Fetch("key"));
}

TEST(HashTable, GrowsPastInitialBuckets) {
  MrHashTable<int> table(4);
  for (int i = 0; i < 1000; ++i) {
    table.Store("key" + std::to_string(i), i);
  }
  EXPECT_EQ(1000u, table.size());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_NE(nullptr, table.Fetch("key" + std::to_string(i)));
    EXPECT_EQ(i, *table.Fetch("key" + std::to_string(i)));
  }
}

TEST(HashTable, ForEachVisitsEverything) {
  MrHashTable<int> table;
  for (int i = 0; i < 50; ++i) {
    table.Store("k" + std::to_string(i), i);
  }
  std::set<int> seen;
  table.ForEach([&](const std::string&, int& v) { seen.insert(v); });
  EXPECT_EQ(50u, seen.size());
}

TEST(HashTable, ClearEmpties) {
  MrHashTable<int> table;
  table.Store("a", 1);
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(nullptr, table.Fetch("a"));
}

TEST(Crc32, KnownVectors) {
  // Standard test vector for CRC-32/IEEE.
  EXPECT_EQ(0xCBF43926u, Crc32("123456789"));
  EXPECT_EQ(0u, Crc32(""));
}

TEST(Crc32, IncrementalMatchesOneShot) {
  std::string data = "the athena service management system";
  uint32_t one_shot = Crc32(data);
  uint32_t incremental = 0;
  for (size_t i = 0; i < data.size(); i += 5) {
    incremental = Crc32Update(incremental, std::string_view(data).substr(i, 5));
  }
  EXPECT_EQ(one_shot, incremental);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data(128, 'x');
  uint32_t before = Crc32(data);
  data[64] ^= 1;
  EXPECT_NE(before, Crc32(data));
}

TEST(SimulatedClock, AdvanceAndSet) {
  SimulatedClock clock(100);
  EXPECT_EQ(100, clock.Now());
  clock.Advance(50);
  EXPECT_EQ(150, clock.Now());
  clock.Set(7);
  EXPECT_EQ(7, clock.Now());
}

TEST(SystemClock, LooksLikeWallTime) {
  SystemClock clock;
  // Any time after 2020 and before 2100.
  EXPECT_GT(clock.Now(), 1577836800);
  EXPECT_LT(clock.Now(), 4102444800);
}

TEST(SplitMix64, DeterministicPerSeed) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  SplitMix64 c(43);
  bool diverged = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    if (va != c.Next()) {
      diverged = true;
    }
  }
  EXPECT_TRUE(diverged);
}

TEST(SplitMix64, BoundsRespected) {
  SplitMix64 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(10), 10u);
    int64_t v = rng.Between(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}


TEST(RetryController, ExhaustsAttemptBudget) {
  SimulatedClock clock(0);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff = 4;
  policy.multiplier = 2;
  RetryController retry(policy, &clock);
  EXPECT_EQ(4, retry.RecordFailure());   // before attempt 2
  clock.Advance(4);
  EXPECT_EQ(8, retry.RecordFailure());   // before attempt 3
  clock.Advance(8);
  EXPECT_EQ(-1, retry.RecordFailure());  // budget spent
  EXPECT_EQ(3, retry.attempts());
  EXPECT_EQ(12, retry.elapsed());
}

TEST(RetryController, SingleAttemptPolicyNeverRetries) {
  SimulatedClock clock(0);
  RetryController retry(RetryPolicy{}, &clock);
  EXPECT_EQ(-1, retry.RecordFailure());
}

TEST(RetryController, BackoffCapsAtMax) {
  SimulatedClock clock(0);
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff = 100;
  policy.multiplier = 10;
  policy.max_backoff = 300;
  RetryController retry(policy, &clock);
  EXPECT_EQ(100, retry.RecordFailure());
  EXPECT_EQ(300, retry.RecordFailure());  // 1000 capped to 300
  EXPECT_EQ(300, retry.RecordFailure());
}

TEST(RetryController, DeadlineRefusesOverrunningWait) {
  SimulatedClock clock(0);
  RetryPolicy policy;
  policy.max_attempts = 100;
  policy.initial_backoff = 30;
  policy.multiplier = 1;
  policy.deadline = 70;
  RetryController retry(policy, &clock);
  EXPECT_EQ(30, retry.RecordFailure());
  clock.Advance(30);
  EXPECT_EQ(30, retry.RecordFailure());  // ends exactly at 60 < 70
  clock.Advance(30);
  EXPECT_TRUE(retry.WithinDeadline());
  EXPECT_EQ(-1, retry.RecordFailure());  // 60 + 30 >= 70: refused
  clock.Advance(10);
  EXPECT_FALSE(retry.WithinDeadline());
}

TEST(RetryController, JitterIsDeterministicAndBounded) {
  RetryPolicy policy;
  policy.max_attempts = 50;
  policy.initial_backoff = 1000;
  policy.multiplier = 1;
  policy.max_backoff = 1000;     // keep the base flat across attempts
  policy.jitter_permille = 200;  // scale in [0.8, 1.2]
  policy.seed = 42;
  SimulatedClock clock_a(0);
  SimulatedClock clock_b(0);
  RetryController a(policy, &clock_a);
  RetryController b(policy, &clock_b);
  bool varied = false;
  for (int i = 0; i < 40; ++i) {
    UnixTime wa = a.RecordFailure();
    EXPECT_EQ(wa, b.RecordFailure());  // same seed, same schedule
    EXPECT_GE(wa, 800);
    EXPECT_LE(wa, 1200);
    if (wa != 1000) {
      varied = true;
    }
  }
  EXPECT_TRUE(varied);
}

}  // namespace
}  // namespace moira
