// Unit tests for util: rng, bit io, stats, table, csv.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

#include "util/bits.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"

namespace dyndisp {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowCoversRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInclusiveBounds) {
  Rng rng(3);
  bool hit_lo = false, hit_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    hit_lo |= v == -2;
    hit_hi |= v == 2;
  }
  EXPECT_TRUE(hit_lo);
  EXPECT_TRUE(hit_hi);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(11);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    if (rng.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(13);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(13);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  const auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);  // probability of identity is astronomically small
}

TEST(Rng, SplitIndependence) {
  Rng parent(17);
  Rng child = parent.split();
  // Child and parent produce different streams.
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(BitWidth, KnownValues) {
  EXPECT_EQ(bit_width_for(1), 1u);
  EXPECT_EQ(bit_width_for(2), 1u);
  EXPECT_EQ(bit_width_for(3), 2u);
  EXPECT_EQ(bit_width_for(4), 2u);
  EXPECT_EQ(bit_width_for(5), 3u);
  EXPECT_EQ(bit_width_for(256), 8u);
  EXPECT_EQ(bit_width_for(257), 9u);
}

TEST(Bits, RoundTripSingleField) {
  BitWriter w;
  w.write(0b1011, 4);
  BitReader r(w);
  EXPECT_EQ(r.read(4), 0b1011u);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Bits, RoundTripMixedFields) {
  BitWriter w;
  w.write(5, 3);
  w.write_bool(true);
  w.write(1023, 10);
  w.write_bool(false);
  w.write(0xDEADBEEF, 32);
  EXPECT_EQ(w.bit_count(), 3u + 1 + 10 + 1 + 32);
  BitReader r(w);
  EXPECT_EQ(r.read(3), 5u);
  EXPECT_TRUE(r.read_bool());
  EXPECT_EQ(r.read(10), 1023u);
  EXPECT_FALSE(r.read_bool());
  EXPECT_EQ(r.read(32), 0xDEADBEEFu);
}

TEST(Bits, SixtyFourBitValue) {
  BitWriter w;
  const std::uint64_t v = 0x0123456789ABCDEFULL;
  w.write(v, 64);
  BitReader r(w);
  EXPECT_EQ(r.read(64), v);
}

TEST(Bits, ByteBoundaryCrossing) {
  BitWriter w;
  for (unsigned i = 0; i < 13; ++i) w.write(i & 1, 1);
  w.write(0x7F, 7);
  BitReader r(w);
  for (unsigned i = 0; i < 13; ++i) EXPECT_EQ(r.read(1), (i & 1));
  EXPECT_EQ(r.read(7), 0x7Fu);
}

TEST(Bits, RawByteReader) {
  BitWriter w;
  w.write(0xAB, 8);
  w.write(0xCD, 8);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(8), 0xABu);
  EXPECT_EQ(r.read(8), 0xCDu);
}

// Bit-at-a-time reference codec: the seed's loops, kept here only so the
// byte-wise codec can be checked against them bit for bit.
class RefBitWriter {
 public:
  void write(std::uint64_t value, unsigned bits) {
    for (unsigned i = bits; i-- > 0;) {
      const std::size_t byte_index = bit_count_ / 8;
      if (byte_index == bytes_.size()) bytes_.push_back(0);
      if ((value >> i) & 1u)
        bytes_[byte_index] |= static_cast<std::uint8_t>(1u << (7 - bit_count_ % 8));
      ++bit_count_;
    }
  }
  std::size_t bit_count() const { return bit_count_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
};

std::uint64_t ref_read(const std::vector<std::uint8_t>& bytes,
                       std::size_t& cursor, unsigned bits) {
  std::uint64_t value = 0;
  for (unsigned i = 0; i < bits; ++i, ++cursor)
    value = (value << 1) | ((bytes[cursor / 8] >> (7 - cursor % 8)) & 1u);
  return value;
}

unsigned ref_bit_width_for(std::uint64_t n) {
  if (n <= 2) return 1;
  unsigned w = 0;
  for (std::uint64_t v = n - 1; v != 0; v >>= 1) ++w;
  return w;
}

std::uint64_t low_bits(std::uint64_t v, unsigned bits) {
  return bits == 64 ? v : v & ((std::uint64_t{1} << bits) - 1);
}

TEST(BitWidth, MatchesReferenceAroundEveryPowerOfTwo) {
  for (unsigned j = 0; j <= 63; ++j) {
    const std::uint64_t p = std::uint64_t{1} << j;
    for (const std::uint64_t n : {p - 1, p, p + 1})
      EXPECT_EQ(bit_width_for(n), ref_bit_width_for(n)) << "n = " << n;
  }
  EXPECT_EQ(bit_width_for(0), 1u);
  EXPECT_EQ(bit_width_for(UINT64_MAX), 64u);
  EXPECT_EQ(bit_width_for(UINT64_MAX), ref_bit_width_for(UINT64_MAX));
}

TEST(Bits, EveryWidthAtEveryOffsetMatchesReference) {
  // Values carry set bits above the width: the codec must ignore them.
  const std::uint64_t patterns[] = {0, UINT64_MAX, 0xA5A5A5A5A5A5A5A5ULL,
                                    0x0123456789ABCDEFULL,
                                    0x8000000000000001ULL};
  for (unsigned offset = 0; offset < 8; ++offset) {
    for (unsigned width = 0; width <= 64; ++width) {
      for (const std::uint64_t v : patterns) {
        BitWriter w;
        RefBitWriter ref;
        w.write(UINT64_MAX, offset);
        ref.write(UINT64_MAX, offset);
        w.write(v, width);
        ref.write(v, width);
        ASSERT_EQ(w.bit_count(), ref.bit_count());
        ASSERT_EQ(w.bytes(), ref.bytes())
            << "offset " << offset << " width " << width << " value " << v;
        BitReader r(w);
        EXPECT_EQ(r.read(offset), low_bits(UINT64_MAX, offset));
        EXPECT_EQ(r.read(width), low_bits(v, width))
            << "offset " << offset << " width " << width << " value " << v;
        EXPECT_EQ(r.remaining(), 0u);
      }
    }
  }
}

TEST(Bits, MixedWriteSequencesMatchReference) {
  Rng rng(29);
  for (int trial = 0; trial < 200; ++trial) {
    BitWriter w;
    RefBitWriter ref;
    std::vector<std::pair<std::uint64_t, unsigned>> fields;
    const int count = 1 + static_cast<int>(rng.next_u64() % 24);
    for (int f = 0; f < count; ++f) {
      const unsigned width = static_cast<unsigned>(rng.next_u64() % 65);
      const std::uint64_t v = rng.next_u64();
      w.write(v, width);
      ref.write(v, width);
      fields.emplace_back(v, width);
    }
    ASSERT_EQ(w.bit_count(), ref.bit_count());
    ASSERT_EQ(w.bytes(), ref.bytes()) << "trial " << trial;
    // The byte-wise reader agrees with the reference reader on the raw
    // payload, field by field.
    BitReader r(w.bytes());
    std::size_t cursor = 0;
    for (const auto& [v, width] : fields) {
      const std::uint64_t got = r.read(width);
      EXPECT_EQ(got, ref_read(ref.bytes(), cursor, width));
      EXPECT_EQ(got, low_bits(v, width));
    }
  }
}

TEST(Bits, ClearRestartsAtByteZero) {
  BitWriter w;
  w.write(UINT64_MAX, 13);
  w.clear();
  w.write(0b101, 3);
  ASSERT_EQ(w.bytes().size(), 1u);
  EXPECT_EQ(w.bytes()[0], 0b10100000u);
}

TEST(Summary, BasicStatistics) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Summary, Percentiles) {
  Summary s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.median(), 50.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_DOUBLE_EQ(s.percentile(90), 90.0);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.5);
}

TEST(Summary, AddAfterQueryKeepsCorrectOrder) {
  Summary s;
  s.add(5);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  s.add(1);  // forces re-sort on next query
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(LinearSlope, ExactLine) {
  std::vector<double> x{1, 2, 3, 4}, y{3, 5, 7, 9};
  EXPECT_NEAR(linear_slope(x, y), 2.0, 1e-12);
}

TEST(LinearSlope, FlatLine) {
  std::vector<double> x{1, 2, 3}, y{4, 4, 4};
  EXPECT_NEAR(linear_slope(x, y), 0.0, 1e-12);
}

TEST(AsciiTable, RendersHeaderAndRows) {
  AsciiTable t({"k", "rounds"});
  t.add_row({"8", "7"});
  t.add_row({"16", "15"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| k "), std::string::npos);
  EXPECT_NE(out.find("| 16"), std::string::npos);
  EXPECT_NE(out.find("| 7 "), std::string::npos);
}

TEST(AsciiTable, PadsShortRows) {
  AsciiTable t({"a", "b", "c"});
  t.add_row({"1"});
  const std::string out = t.render();
  // Three columns rendered even though the row had one cell.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 5);  // 3 rules + 2 rows
  EXPECT_NE(out.find("| 1 |"), std::string::npos);
}

TEST(AsciiTable, TitleShownWhenSet) {
  AsciiTable t({"x"});
  t.set_title("Table I");
  EXPECT_EQ(t.render().rfind("Table I\n", 0), 0u);
}

TEST(FmtDouble, RespectsDigits) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(2.0, 0), "2");
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WritesFile) {
  const std::string path = ::testing::TempDir() + "dyndisp_csv_test.csv";
  {
    CsvWriter w(path, {"k", "rounds"});
    ASSERT_TRUE(w.ok());
    w.add_row({"4", "3"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "k,rounds");
  std::getline(in, line);
  EXPECT_EQ(line, "4,3");
}

}  // namespace
}  // namespace dyndisp
