#include <gtest/gtest.h>
#include <sys/resource.h>

#include <vector>

#include "htm/des_engine.hpp"
#include "mem/footprint.hpp"
#include "mem/lazy_zero.hpp"
#include "mem/sim_heap.hpp"
#include "model/machines.hpp"
#include "util/blob.hpp"
#include "util/rng.hpp"

namespace aam::mem {
namespace {

// -------------------------------------------------------------- SimHeap

TEST(SimHeap, AllocatesAlignedAndContained) {
  SimHeap heap(1 << 16);
  auto a = heap.alloc<std::uint64_t>(10);
  auto b = heap.alloc<double>(5);
  EXPECT_EQ(a.size(), 10u);
  EXPECT_EQ(b.size(), 5u);
  EXPECT_TRUE(heap.contains(a.data()));
  EXPECT_TRUE(heap.contains(&b[4]));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a.data()) % 8, 0u);
  int local = 0;
  EXPECT_FALSE(heap.contains(&local));
}

TEST(SimHeap, ZeroInitializes) {
  SimHeap heap(1 << 12);
  auto a = heap.alloc<std::uint32_t>(100);
  for (auto v : a) EXPECT_EQ(v, 0u);
}

TEST(SimHeap, LineOfMapsSixtyFourByteBlocks) {
  SimHeap heap(1 << 12);
  auto a = heap.alloc<std::uint8_t>(256);
  const LineId l0 = heap.line_of(&a[0]);
  EXPECT_EQ(heap.line_of(&a[63]) - l0, 0u);
  EXPECT_EQ(heap.line_of(&a[64]) - l0, 1u);
  EXPECT_EQ(heap.line_of(&a[255]) - l0, 3u);
}

TEST(SimHeap, BaseIsLineAligned) {
  SimHeap heap(1 << 12);
  auto a = heap.alloc<std::uint8_t>(1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&a[0]) % kLineBytes, 0u);
}

TEST(SimHeap, ResetReclaims) {
  SimHeap heap(1 << 10);
  heap.alloc<std::uint64_t>(100);
  const std::size_t used = heap.used_bytes();
  EXPECT_GE(used, 800u);
  heap.reset();
  EXPECT_EQ(heap.used_bytes(), 0u);
  heap.alloc<std::uint64_t>(100);  // fits again
}

TEST(SimHeapDeathTest, AbortsWhenExhausted) {
  SimHeap heap(1 << 10);
  EXPECT_DEATH(heap.alloc<std::uint64_t>(1 << 20), "out of capacity");
}

// ---------------------------------------------------------- StripeTable

TEST(StripeTable, OwnersAndAvailability) {
  StripeTable table(16);
  EXPECT_DOUBLE_EQ(table.available_at(7), 0.0);
  table.set_available_at(7, 90.0);
  EXPECT_DOUBLE_EQ(table.available_at(7), 90.0);
  EXPECT_EQ(table.owner(5), StripeTable::kNoOwner);
  table.set_owner(5, 2);
  EXPECT_EQ(table.owner(5), 2u);
  table.set_owner(5, 0);
  EXPECT_EQ(table.owner(5), 0u);
  table.set_owner(5, StripeTable::kNoOwner);
  EXPECT_EQ(table.owner(5), StripeTable::kNoOwner);
  EXPECT_EQ(table.owner(4), StripeTable::kNoOwner);
  EXPECT_DOUBLE_EQ(table.available_at(6), 0.0);
}

// ------------------------------------------------------- LazyZeroBuffer

TEST(LazyZeroBuffer, ReadsAsZeroAndKeepsWrites) {
  LazyZeroBuffer<std::uint64_t> buf(1 << 20);
  ASSERT_EQ(buf.size(), std::size_t{1} << 20);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 4096, 0u);
  EXPECT_EQ(buf[0], 0u);
  EXPECT_EQ(buf[(1 << 20) - 1], 0u);
  buf[12345] = 7;
  LazyZeroBuffer<std::uint64_t> moved(std::move(buf));
  EXPECT_EQ(moved[12345], 7u);
  EXPECT_EQ(moved[12346], 0u);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.data(), nullptr);
}

TEST(LazyZeroBuffer, EmptyHoldsNoMapping) {
  LazyZeroBuffer<double> buf(0);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.data(), nullptr);
}

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// A machine sizes its heap, commit stamps and stripe table from the heap's
// capacity; building one must cost pages for what it touches, not for the
// capacity. Zero-filling a 256 MiB BG/Q heap eagerly takes over 140k page
// faults (64k for the arena, 64k for the 8-byte-unit stamps, 12k for the
// stripes); the bound allows a few MiB.
TEST(LazyZeroBuffer, MachineBuildTouchesFewPages) {
  constexpr std::size_t kBytes = std::size_t{256} << 20;
  constexpr long kMaxFaults = 2048;  // 8 MiB of 4 KiB pages
  const long before = minor_faults();
  SimHeap heap(kBytes);
  htm::DesMachine machine(model::bgq(), model::HtmKind::kBgqShort,
                          model::bgq().max_threads(), heap, /*seed=*/1);
  EXPECT_LT(minor_faults() - before, kMaxFaults);
}

TEST(LazyZeroBuffer, UntouchedMachineMemoryReadsAsZero) {
  constexpr std::size_t kBytes = std::size_t{1} << 20;
  SimHeap heap(kBytes);
  htm::DesMachine machine(model::bgq(), model::HtmKind::kBgqShort, 4, heap);
  // The machine allocated its elision lock; everything past it is fresh.
  auto words = heap.alloc<std::uint64_t>(1024, "probe");
  for (std::uint64_t w : words) EXPECT_EQ(w, 0u);
  const std::byte* tail =
      heap.addr_of(heap.used_bytes() - 1) + 1;  // first unallocated byte
  const std::size_t rest = heap.capacity_bytes() - heap.used_bytes();
  std::size_t nonzero = 0;
  for (std::size_t i = 0; i < rest; ++i) nonzero += tail[i] != std::byte{0};
  EXPECT_EQ(nonzero, 0u);
  // The core checkpoint carries one commit stamp per conflict unit of the
  // used heap.
  util::BlobWriter w;
  machine.save_core(w);
  const auto blob = w.take();
  util::BlobReader r(blob);
  r.get<double>();  // now
  r.get<double>();  // last progress
  EXPECT_EQ(r.get<std::uint64_t>(), 0u);  // commit stamp
  const auto units = r.get<std::uint64_t>();
  EXPECT_EQ(units, (heap.used_bytes() >> machine.conflict_shift()) + 1);
  std::size_t stamped = 0;
  for (std::uint64_t u = 0; u < units; ++u) {
    stamped += r.get<std::uint64_t>() != 0;
  }
  EXPECT_EQ(stamped, 0u);
  auto& stripes = machine.stripes();
  ASSERT_EQ(stripes.num_lines(), heap.num_lines());
  std::size_t stripe_state = 0;
  for (LineId l = 0; l < stripes.num_lines(); ++l) {
    stripe_state += stripes.owner(l) != StripeTable::kNoOwner;
    stripe_state += stripes.available_at(l) != 0.0;
  }
  EXPECT_EQ(stripe_state, 0u);
}

// ------------------------------------------------------------- EpochSet

TEST(EpochSet, InsertAndDuplicate) {
  EpochSet s;
  EXPECT_TRUE(s.insert(5));
  EXPECT_FALSE(s.insert(5));
  EXPECT_TRUE(s.insert(6));
  EXPECT_TRUE(s.contains(5));
  EXPECT_FALSE(s.contains(7));
  EXPECT_EQ(s.size(), 2u);
}

TEST(EpochSet, ClearIsConstantTimeAndComplete) {
  EpochSet s;
  for (std::uint64_t i = 0; i < 100; ++i) s.insert(i);
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_FALSE(s.contains(i));
  EXPECT_TRUE(s.insert(3));
}

TEST(EpochSet, GrowsBeyondInitialCapacity) {
  EpochSet s(4);
  for (std::uint64_t i = 0; i < 10000; ++i) EXPECT_TRUE(s.insert(i * 7 + 1));
  EXPECT_EQ(s.size(), 10000u);
  for (std::uint64_t i = 0; i < 10000; ++i) EXPECT_TRUE(s.contains(i * 7 + 1));
  EXPECT_FALSE(s.contains(3));
}

TEST(EpochSet, SurvivesManyEpochs) {
  EpochSet s;
  for (int epoch = 0; epoch < 1000; ++epoch) {
    EXPECT_TRUE(s.insert(static_cast<std::uint64_t>(epoch)));
    EXPECT_EQ(s.size(), 1u);
    s.clear();
  }
}

TEST(EpochSet, CollidingKeysProbeCorrectly) {
  // Keys a multiple of a large power of two apart land on the same slot
  // for any table size up to that power; every insert past the first must
  // walk the probe chain rather than overwrite.
  EpochSet s(4);
  constexpr std::uint64_t kStride = std::uint64_t{1} << 32;
  for (std::uint64_t i = 1; i <= 64; ++i) EXPECT_TRUE(s.insert(i * kStride));
  EXPECT_EQ(s.size(), 64u);
  for (std::uint64_t i = 1; i <= 64; ++i) {
    EXPECT_TRUE(s.contains(i * kStride)) << i;
    EXPECT_FALSE(s.insert(i * kStride)) << i;
  }
  EXPECT_FALSE(s.contains(65 * kStride));
}

TEST(EpochSet, ContainsWalksProbeChainOnVerifiedCollisions) {
  // The stride test above hopes for collisions; mix64 scrambles strides, so
  // it does not guarantee any. Here we brute-force keys whose *hashed* home
  // slot provably collides under the initial mask, then check contains()
  // distinguishes residents from an absent key that shares their chain.
  constexpr std::size_t kMask = 63;  // initial_capacity 64, no growth below
  const std::size_t home = util::mix64(1) & kMask;
  std::vector<std::uint64_t> keys{1};
  for (std::uint64_t k = 2; keys.size() < 3; ++k) {
    if ((util::mix64(k) & kMask) == home) keys.push_back(k);
  }
  EpochSet s(64);
  EXPECT_TRUE(s.insert(keys[0]));
  EXPECT_TRUE(s.insert(keys[1]));
  // Lookup of the displaced second key must walk past the first.
  EXPECT_TRUE(s.contains(keys[0]));
  EXPECT_TRUE(s.contains(keys[1]));
  // An absent key whose home slot is occupied by a live entry must probe to
  // the chain's end and report absent, not match on epoch alone.
  EXPECT_FALSE(s.contains(keys[2]));
  EXPECT_FALSE(s.insert(keys[0]));
  EXPECT_FALSE(s.insert(keys[1]));
  EXPECT_EQ(s.size(), 2u);

  // Epoch-stale variant: after clear() the same chain's slots hold stale
  // epochs; contains() must treat them as empty, and reinsertion of only
  // the displaced key must not resurrect its chain predecessor.
  s.clear();
  EXPECT_FALSE(s.contains(keys[0]));
  EXPECT_FALSE(s.contains(keys[1]));
  EXPECT_TRUE(s.insert(keys[1]));
  EXPECT_TRUE(s.contains(keys[1]));
  EXPECT_FALSE(s.contains(keys[0]));
}

TEST(EpochSet, StaleSlotsDoNotResurrectAcrossGrowAndClear) {
  // clear() then enough inserts to grow: relocation must not carry
  // previous-epoch keys into the new table.
  EpochSet s(4);
  for (std::uint64_t i = 0; i < 100; ++i) s.insert(i);
  s.clear();
  for (std::uint64_t i = 1000; i < 1100; ++i) EXPECT_TRUE(s.insert(i));
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_FALSE(s.contains(i)) << i;
  EXPECT_EQ(s.size(), 100u);
}

// -------------------------------------------------------------- WordMap

TEST(WordMap, LookupInsertAssign) {
  WordMap m;
  std::uint64_t v = 0;
  EXPECT_FALSE(m.lookup(0x1000, v));
  m.insert_or_assign(0x1000, 7);
  EXPECT_TRUE(m.lookup(0x1000, v));
  EXPECT_EQ(v, 7u);
  m.insert_or_assign(0x1000, 9);
  EXPECT_TRUE(m.lookup(0x1000, v));
  EXPECT_EQ(v, 9u);
  EXPECT_EQ(m.size(), 1u);
}

TEST(WordMap, IteratesInsertionOrder) {
  WordMap m;
  m.insert_or_assign(0x30, 3);
  m.insert_or_assign(0x10, 1);
  m.insert_or_assign(0x20, 2);
  m.insert_or_assign(0x10, 11);  // reassign must not duplicate
  std::vector<std::pair<std::uintptr_t, std::uint64_t>> seen;
  m.for_each([&](std::uintptr_t k, std::uint64_t val) {
    seen.emplace_back(k, val);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], (std::pair<std::uintptr_t, std::uint64_t>{0x30, 3}));
  EXPECT_EQ(seen[1], (std::pair<std::uintptr_t, std::uint64_t>{0x10, 11}));
  EXPECT_EQ(seen[2], (std::pair<std::uintptr_t, std::uint64_t>{0x20, 2}));
}

TEST(WordMap, GrowsAndClears) {
  WordMap m(4);
  for (std::uintptr_t i = 0; i < 5000; ++i) m.insert_or_assign(i * 8, i);
  EXPECT_EQ(m.size(), 5000u);
  std::uint64_t v = 0;
  EXPECT_TRUE(m.lookup(4096 * 8, v));
  EXPECT_EQ(v, 4096u);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_FALSE(m.lookup(8, v));
}

TEST(WordMap, InsertionOrderSurvivesGrowth) {
  WordMap m(4);
  // Reverse-ordered addresses so table order != insertion order, far past
  // the initial capacity so the table rehashes several times.
  for (std::uintptr_t i = 0; i < 600; ++i) {
    m.insert_or_assign((600 - i) * 8, i);
  }
  std::uintptr_t expect_key = 600 * 8;
  std::uint64_t expect_val = 0;
  m.for_each([&](std::uintptr_t k, std::uint64_t val) {
    EXPECT_EQ(k, expect_key);
    EXPECT_EQ(val, expect_val);
    expect_key -= 8;
    ++expect_val;
  });
  EXPECT_EQ(expect_val, 600u);
}

TEST(WordMap, ReassignAfterClearDoesNotReviveStaleEntries) {
  WordMap m(4);
  for (std::uintptr_t i = 0; i < 100; ++i) m.insert_or_assign(i * 8, i + 1);
  m.clear();
  m.insert_or_assign(0x18, 42);  // address also present before the clear
  std::uint64_t v = 0;
  EXPECT_TRUE(m.lookup(0x18, v));
  EXPECT_EQ(v, 42u);
  EXPECT_EQ(m.size(), 1u);
  std::size_t visited = 0;
  m.for_each([&](std::uintptr_t, std::uint64_t) { ++visited; });
  EXPECT_EQ(visited, 1u);
}

TEST(WordMap, WriteBackSeesLatestValuesAcrossGrowth) {
  // Commit write-back (for_each) reads values stored next to the
  // insertion-order keys; reassignments made before *and* after table
  // growth must both be visible, in first-insertion order.
  WordMap m(4);
  for (std::uintptr_t i = 0; i < 64; ++i) m.insert_or_assign(i * 8, i);
  for (std::uintptr_t i = 0; i < 64; i += 2) {
    m.insert_or_assign(i * 8, 1000 + i);  // reassign half, post-growth
  }
  std::uintptr_t idx = 0;
  m.for_each([&](std::uintptr_t k, std::uint64_t val) {
    EXPECT_EQ(k, idx * 8);
    EXPECT_EQ(val, idx % 2 == 0 ? 1000 + idx : idx);
    ++idx;
  });
  EXPECT_EQ(idx, 64u);
}

// ----------------------------------------------------- FootprintTracker

model::CacheGeometry small_geom() {
  model::CacheGeometry g;
  g.sets = 4;
  g.ways = 2;  // capacity: 8 lines total, 2 per set
  return g;
}

constexpr std::uint64_t line_off(std::uint64_t line) { return line * 64; }

TEST(FootprintTracker, TracksDistinctLines) {
  FootprintTracker t;
  t.configure(small_geom(), 100);
  EXPECT_EQ(t.add_write(line_off(1)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(1)), FootprintTracker::Add::kDuplicate);
  EXPECT_EQ(t.add_read(line_off(2)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_read(line_off(2)), FootprintTracker::Add::kDuplicate);
  // A line already written is not re-tracked as a read.
  EXPECT_EQ(t.add_read(line_off(1)), FootprintTracker::Add::kDuplicate);
  EXPECT_EQ(t.distinct_write_lines(), 1u);
  EXPECT_EQ(t.distinct_read_lines(), 1u);
}

TEST(FootprintTracker, AssociativityOverflow) {
  FootprintTracker t;
  t.configure(small_geom(), 100);
  // Lines 0, 4, 8 all map to set 0 with 4 sets; 2 ways -> third overflows.
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(4)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(8)), FootprintTracker::Add::kOverflow);
}

TEST(FootprintTracker, SequentialLinesFillAllSets) {
  FootprintTracker t;
  t.configure(small_geom(), 100);
  for (LineId l = 0; l < 8; ++l) {
    EXPECT_EQ(t.add_write(line_off(l)), FootprintTracker::Add::kOk) << l;
  }
  EXPECT_EQ(t.add_write(line_off(8)), FootprintTracker::Add::kOverflow);
}

TEST(FootprintTracker, ReadCapacityIsTotalOnly) {
  FootprintTracker t;
  t.configure(small_geom(), 5);
  // Reads have no associativity constraint: 5 lines in the same set are OK.
  for (LineId l = 0; l < 5; ++l) {
    EXPECT_EQ(t.add_read(line_off(l * 4)), FootprintTracker::Add::kOk);
  }
  EXPECT_EQ(t.add_read(line_off(20)), FootprintTracker::Add::kOverflow);
}

TEST(FootprintTracker, ResetRestoresCapacity) {
  FootprintTracker t;
  t.configure(small_geom(), 100);
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(4)), FootprintTracker::Add::kOk);
  t.reset();
  EXPECT_EQ(t.distinct_write_lines(), 0u);
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(4)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(8)), FootprintTracker::Add::kOverflow);
}

TEST(FootprintTracker, FineConflictUnitsWithinOneLine) {
  // BG/Q-style 8-byte conflict units: two words in one line are distinct
  // conflict units but a single capacity line.
  FootprintTracker t;
  t.configure(small_geom(), 100, /*conflict_shift=*/3);
  EXPECT_EQ(t.add_write(0), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(8), FootprintTracker::Add::kDuplicate);  // same line
  EXPECT_EQ(t.write_units().size(), 2u);
  EXPECT_EQ(t.distinct_write_lines(), 1u);
}

TEST(FootprintTracker, CoarseUnitsMatchLines) {
  FootprintTracker t;
  t.configure(small_geom(), 100, /*conflict_shift=*/6);
  EXPECT_EQ(t.add_write(0), FootprintTracker::Add::kOk);
  t.add_write(8);   // same 64B line and same unit
  EXPECT_EQ(t.write_units().size(), 1u);
  EXPECT_EQ(t.distinct_write_lines(), 1u);
}

TEST(FootprintTracker, SequentialSameLineIsDuplicateWithoutSetGrowth) {
  // The last-access memo: repeats of the immediately preceding access are
  // kDuplicate and must not grow any set or unit list.
  FootprintTracker t;
  t.configure(small_geom(), 100, /*conflict_shift=*/6);
  EXPECT_EQ(t.add_write(line_off(3)), FootprintTracker::Add::kOk);
  for (int i = 0; i < 5; ++i) {
    // Different word offsets within the same line and unit.
    EXPECT_EQ(t.add_write(line_off(3) + 8 * i),
              FootprintTracker::Add::kDuplicate);
  }
  EXPECT_EQ(t.write_units().size(), 1u);
  EXPECT_EQ(t.distinct_write_lines(), 1u);
  EXPECT_EQ(t.add_read(line_off(5)), FootprintTracker::Add::kOk);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(t.add_read(line_off(5) + 8 * i),
              FootprintTracker::Add::kDuplicate);
  }
  EXPECT_EQ(t.read_units().size(), 1u);
  EXPECT_EQ(t.distinct_read_lines(), 1u);
}

TEST(FootprintTracker, MemoDoesNotConfuseReadsWithWrites) {
  FootprintTracker t;
  t.configure(small_geom(), 100);
  // A read memo on a line must not short-circuit the first *write* to it:
  // the write still has to enter the write sets and capacity model.
  EXPECT_EQ(t.add_read(line_off(1)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(1)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.distinct_write_lines(), 1u);
  EXPECT_EQ(t.write_units().size(), 1u);
  // And vice versa: after a write, the first read of that line reports
  // kDuplicate (write set covers it) exactly as without the memo.
  EXPECT_EQ(t.add_write(line_off(2)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_read(line_off(2)), FootprintTracker::Add::kDuplicate);
  EXPECT_EQ(t.read_units().size(), 1u);  // only line 1's unit
}

TEST(FootprintTracker, MemoClearedByReset) {
  FootprintTracker t;
  t.configure(small_geom(), 100);
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kDuplicate);
  t.reset();
  // A stale memo would wrongly report kDuplicate here.
  EXPECT_EQ(t.add_write(line_off(0)), FootprintTracker::Add::kOk);
  EXPECT_EQ(t.add_read(line_off(9)), FootprintTracker::Add::kOk);
  t.reset();
  EXPECT_EQ(t.add_read(line_off(9)), FootprintTracker::Add::kOk);
}

TEST(FootprintTracker, CapacityAbortCountsIdenticalWithInterleavedRepeats) {
  // Overflow must fire at exactly the same access whether or not repeated
  // same-line touches (memo hits) are interleaved with the distinct ones.
  FootprintTracker plain;
  FootprintTracker noisy;
  plain.configure(small_geom(), 100);
  noisy.configure(small_geom(), 100);
  for (LineId l = 0; l < 8; ++l) {
    EXPECT_EQ(plain.add_write(line_off(l)), FootprintTracker::Add::kOk);
    EXPECT_EQ(noisy.add_write(line_off(l)), FootprintTracker::Add::kOk);
    EXPECT_EQ(noisy.add_write(line_off(l)), FootprintTracker::Add::kDuplicate);
    EXPECT_EQ(noisy.add_write(line_off(l) + 8),
              FootprintTracker::Add::kDuplicate);
  }
  EXPECT_EQ(plain.add_write(line_off(8)), FootprintTracker::Add::kOverflow);
  EXPECT_EQ(noisy.add_write(line_off(8)), FootprintTracker::Add::kOverflow);
  EXPECT_EQ(plain.distinct_write_lines(), noisy.distinct_write_lines());
  EXPECT_EQ(plain.write_units().size(), noisy.write_units().size());
}

}  // namespace
}  // namespace aam::mem
