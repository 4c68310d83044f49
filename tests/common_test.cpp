// Unit and property tests for src/common.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "common/bytes.hpp"
#include "common/fixed_key.hpp"
#include "common/hash.hpp"
#include "common/key_index.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace daiet {
namespace {

// ---------------------------------------------------------------- rng

TEST(Rng, IsDeterministicForSameSeed) {
    Rng a{42};
    Rng b{42};
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next_u64(), b.next_u64());
    }
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a{1};
    Rng b{2};
    int equal = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.next_u64() == b.next_u64()) ++equal;
    }
    EXPECT_LT(equal, 3);
}

TEST(Rng, NextBelowStaysInRange) {
    Rng rng{7};
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
        for (int i = 0; i < 200; ++i) {
            EXPECT_LT(rng.next_below(bound), bound);
        }
    }
}

TEST(Rng, NextBelowOneAlwaysZero) {
    Rng rng{7};
    for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.next_below(1), 0U);
}

TEST(Rng, NextIntCoversClosedRange) {
    Rng rng{3};
    std::set<std::int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.next_int(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5U);
}

TEST(Rng, NextDoubleInUnitInterval) {
    Rng rng{11};
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.next_double();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliMatchesProbability) {
    Rng rng{5};
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMomentsAreStandard) {
    Rng rng{13};
    RunningStats stats;
    for (int i = 0; i < 50000; ++i) stats.add(rng.next_gaussian());
    EXPECT_NEAR(stats.mean(), 0.0, 0.03);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, ForkIsDeterministicAndDivergesFromParent) {
    Rng a{21};
    Rng child_a = a.fork();
    Rng b{21};
    Rng child_b = b.fork();
    int child_matches = 0;
    int parent_matches = 0;
    for (int i = 0; i < 100; ++i) {
        const auto va = child_a.next_u64();
        if (va == child_b.next_u64()) ++child_matches;
        if (va == a.next_u64()) ++parent_matches;
    }
    EXPECT_EQ(child_matches, 100) << "fork must be deterministic";
    EXPECT_LT(parent_matches, 3) << "child must not track the parent stream";
}

TEST(Rng, ShufflePreservesElements) {
    Rng rng{17};
    std::vector<int> v(100);
    std::iota(v.begin(), v.end(), 0);
    auto copy = v;
    rng.shuffle(copy);
    EXPECT_NE(copy, v) << "astronomically unlikely to be identity";
    std::sort(copy.begin(), copy.end());
    EXPECT_EQ(copy, v);
}

TEST(ZipfSampler, UniformWhenExponentZero) {
    ZipfSampler zipf{10, 0.0};
    Rng rng{1};
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
    for (const int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / 50000.0, 0.1, 0.02);
    }
}

TEST(ZipfSampler, SkewFavorsLowRanks) {
    ZipfSampler zipf{1000, 1.0};
    Rng rng{2};
    std::vector<int> counts(1000, 0);
    for (int i = 0; i < 50000; ++i) ++counts[zipf(rng)];
    EXPECT_GT(counts[0], counts[9] * 2);
    EXPECT_GT(counts[0], counts[99] * 10);
}

TEST(ZipfSampler, AllRanksReachable) {
    ZipfSampler zipf{5, 0.5};
    Rng rng{3};
    std::set<std::size_t> seen;
    for (int i = 0; i < 10000; ++i) seen.insert(zipf(rng));
    EXPECT_EQ(seen.size(), 5U);
}

// --------------------------------------------------------------- hash

TEST(Hash, Fnv1a64MatchesKnownVectors) {
    // Standard FNV-1a test vectors.
    EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
    EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Hash, Crc32MatchesKnownVectors) {
    // CRC-32/ISO-HDLC ("123456789" -> 0xCBF43926).
    EXPECT_EQ(Crc32::compute("123456789"), 0xCBF43926U);
    EXPECT_EQ(Crc32::compute(""), 0x00000000U);
    EXPECT_EQ(Crc32::compute("The quick brown fox jumps over the lazy dog"),
              0x414FA339U);
}

// Reference CRC-32: one input byte at a time, one polynomial step per
// bit — no tables, so it shares nothing with the slicing-by-4 loop.
std::uint32_t crc32_bytewise(std::span<const std::byte> data) {
    std::uint32_t c = 0xffffffffU;
    for (const std::byte b : data) {
        c ^= std::to_integer<std::uint32_t>(b);
        for (int k = 0; k < 8; ++k) {
            c = (c & 1U) ? 0xedb88320U ^ (c >> 1) : (c >> 1);
        }
    }
    return c ^ 0xffffffffU;
}

// Every length through several 4-byte words plus each tail length, at
// every word misalignment of the start pointer.
TEST(Hash, Crc32SlicingMatchesBytewiseReference) {
    std::vector<std::byte> buf(3 + 67);
    Rng rng{7};
    for (auto& b : buf) b = static_cast<std::byte>(rng.next_below(256));
    for (std::size_t offset = 0; offset <= 3; ++offset) {
        for (std::size_t len = 0; len <= 67; ++len) {
            const std::span<const std::byte> data{buf.data() + offset, len};
            EXPECT_EQ(Crc32::compute(data), crc32_bytewise(data))
                << "offset " << offset << " length " << len;
        }
    }
}

TEST(Hash, SpanAndStringViewAgree) {
    const std::string s = "daiet";
    EXPECT_EQ(Crc32::compute(s), Crc32::compute(as_bytes(s)));
    EXPECT_EQ(fnv1a64(s), fnv1a64(as_bytes(s)));
}

TEST(Hash, Mix64IsInjectiveOnSample) {
    std::unordered_set<std::uint64_t> outputs;
    for (std::uint64_t i = 0; i < 10000; ++i) outputs.insert(mix64(i));
    EXPECT_EQ(outputs.size(), 10000U);
}

// -------------------------------------------------------------- bytes

TEST(Bytes, RoundTripScalars) {
    ByteWriter w;
    w.put_u8(0xAB);
    w.put_u16(0x1234);
    w.put_u32(0xDEADBEEF);
    w.put_u64(0x0123456789ABCDEFULL);
    w.put_i32(-42);
    w.put_i64(-1);
    w.put_f32(3.5F);

    ByteReader r{w.bytes()};
    EXPECT_EQ(r.get_u8(), 0xAB);
    EXPECT_EQ(r.get_u16(), 0x1234);
    EXPECT_EQ(r.get_u32(), 0xDEADBEEFU);
    EXPECT_EQ(r.get_u64(), 0x0123456789ABCDEFULL);
    EXPECT_EQ(r.get_i32(), -42);
    EXPECT_EQ(r.get_i64(), -1);
    EXPECT_EQ(r.get_f32(), 3.5F);
    EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, BigEndianLayout) {
    ByteWriter w;
    w.put_u16(0x0102);
    const auto bytes = w.bytes();
    EXPECT_EQ(static_cast<int>(bytes[0]), 1);
    EXPECT_EQ(static_cast<int>(bytes[1]), 2);
}

TEST(Bytes, ReaderThrowsPastEnd) {
    ByteWriter w;
    w.put_u16(7);
    ByteReader r{w.bytes()};
    r.get_u8();
    EXPECT_THROW(r.get_u32(), BufferError);
}

TEST(Bytes, WriterCapacityEnforced) {
    ByteWriter w{4};
    w.put_u32(1);
    EXPECT_THROW(w.put_u8(1), BufferError);
}

TEST(Bytes, StringsAndRawBytes) {
    ByteWriter w;
    w.put_string("hello");
    w.put_zeros(3);
    ByteReader r{w.bytes()};
    EXPECT_EQ(r.get_string(5), "hello");
    EXPECT_EQ(r.remaining(), 3U);
    r.skip(3);
    EXPECT_TRUE(r.exhausted());
}

TEST(Bytes, F32RoundTripSpecials) {
    for (const float v : {0.0F, -0.0F, 1e-30F, 3.4e38F, -1.5F}) {
        ByteWriter w;
        w.put_f32(v);
        ByteReader r{w.bytes()};
        EXPECT_EQ(r.get_f32(), v);
    }
}

// ----------------------------------------------------------- FixedKey

TEST(FixedKey, DefaultIsEmptySentinel) {
    Key16 k;
    EXPECT_TRUE(k.empty());
    EXPECT_EQ(k.to_string(), "");
}

TEST(FixedKey, RoundTripsShortStrings) {
    Key16 k{"hello"};
    EXPECT_FALSE(k.empty());
    EXPECT_EQ(k.to_string(), "hello");
}

TEST(FixedKey, ExactWidthString) {
    const std::string s(16, 'x');
    Key16 k{s};
    EXPECT_EQ(k.to_string(), s);
}

TEST(FixedKey, RejectsOverlongStrings) {
    EXPECT_THROW(Key16{std::string(17, 'x')}, std::length_error);
}

TEST(FixedKey, OrderingIsLexicographic) {
    EXPECT_LT(Key16{"abc"}, Key16{"abd"});
    EXPECT_LT(Key16{"ab"}, Key16{"abc"});  // zero-padding sorts first
    EXPECT_EQ(Key16{"same"}, Key16{"same"});
}

TEST(FixedKey, U64RoundTrip) {
    for (const std::uint64_t v : {0ULL, 1ULL, 0xFFFFFFFFFFFFFFFFULL, 12345678ULL}) {
        EXPECT_EQ(Key16::from_u64(v).to_u64(), v);
    }
}

TEST(FixedKey, HashConsistentWithEquality) {
    Key16 a{"hello"};
    Key16 b{"hello"};
    EXPECT_EQ(std::hash<Key16>{}(a), std::hash<Key16>{}(b));
}

TEST(FixedKey, MemcmpOrderingMatchesArrayOrdering) {
    // Property: the memcmp-based <=> agrees with byte-array lexicographic
    // comparison on random keys.
    Rng rng{5};
    for (int i = 0; i < 2000; ++i) {
        const auto a = Key16::from_u64(rng.next_u64());
        const auto b = Key16::from_u64(rng.next_u64());
        const bool lt = std::lexicographical_compare(
            a.bytes().begin(), a.bytes().end(), b.bytes().begin(), b.bytes().end());
        EXPECT_EQ(a < b, lt);
    }
}

// -------------------------------------------------------------- stats

TEST(RunningStats, BasicMoments) {
    RunningStats s;
    for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
    EXPECT_EQ(s.count(), 5U);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.sum(), 15.0);
}

TEST(RunningStats, MergeEqualsCombinedStream) {
    Rng rng{9};
    RunningStats a;
    RunningStats b;
    RunningStats all;
    for (int i = 0; i < 1000; ++i) {
        const double x = rng.next_gaussian();
        (i % 2 == 0 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySidesPreservesMinMax) {
    // Pin the empty-side semantics: merging an empty other is a no-op,
    // and merging into an empty accumulator adopts the other wholesale —
    // neither may drag min/max toward the empty sentinel values.
    RunningStats filled;
    for (const double x : {3.0, -2.0, 7.0}) filled.add(x);

    RunningStats a = filled;
    a.merge(RunningStats{});
    EXPECT_EQ(a.count(), 3U);
    EXPECT_DOUBLE_EQ(a.min(), -2.0);
    EXPECT_DOUBLE_EQ(a.max(), 7.0);
    EXPECT_DOUBLE_EQ(a.mean(), filled.mean());

    RunningStats b;
    b.merge(filled);
    EXPECT_EQ(b.count(), 3U);
    EXPECT_DOUBLE_EQ(b.min(), -2.0);
    EXPECT_DOUBLE_EQ(b.max(), 7.0);
    EXPECT_DOUBLE_EQ(b.mean(), filled.mean());

    RunningStats c;
    c.merge(RunningStats{});
    EXPECT_EQ(c.count(), 0U);
}

TEST(LogHistogram, ExactCountSumMinMax) {
    LogHistogram h;
    EXPECT_TRUE(h.empty());
    for (int i = 1; i <= 1000; ++i) h.add(i);
    EXPECT_EQ(h.count(), 1000U);
    EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
    EXPECT_DOUBLE_EQ(h.mean(), 500.5);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(LogHistogram, QuantilesTrackExactWithinRelativeError) {
    // The log-bucketed quantiles must track the exact (sorted-sample)
    // quantiles within the documented ~1.6% relative error.
    Rng rng{23};
    LogHistogram h;
    Samples exact;
    for (int i = 0; i < 20000; ++i) {
        // Latency-shaped: lognormal-ish spread over several octaves.
        const double v = std::exp(rng.next_gaussian() * 1.5 + 10.0);
        h.add(v);
        exact.add(v);
    }
    for (const double q : {10.0, 50.0, 90.0, 99.0, 99.9}) {
        const double want = exact.percentile(q);
        const double got = h.percentile(q);
        EXPECT_NEAR(got, want, want * 0.02) << "q=" << q;
    }
    EXPECT_DOUBLE_EQ(h.quantile(0.0), exact.min());
    EXPECT_DOUBLE_EQ(h.quantile(1.0), exact.max());
}

TEST(LogHistogram, MergeEqualsCombinedStream) {
    Rng rng{31};
    LogHistogram a;
    LogHistogram b;
    LogHistogram all;
    for (int i = 0; i < 4000; ++i) {
        const double v = std::exp(rng.next_gaussian() + 5.0);
        (i % 2 == 0 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    // Sums differ only by float addition order.
    EXPECT_NEAR(a.sum(), all.sum(), all.sum() * 1e-12);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
    EXPECT_DOUBLE_EQ(a.percentile(99.0), all.percentile(99.0));

    LogHistogram empty;
    a.merge(empty);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    empty.merge(a);
    EXPECT_EQ(empty.count(), all.count());
    EXPECT_DOUBLE_EQ(empty.min(), all.min());
}

TEST(Samples, ExactPercentiles) {
    Samples s;
    for (int i = 1; i <= 100; ++i) s.add(i);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 100.0);
    EXPECT_NEAR(s.median(), 50.5, 1e-9);
    EXPECT_NEAR(s.percentile(25), 25.75, 1e-9);
}

TEST(Samples, SingleElement) {
    Samples s;
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.median(), 7.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 7.0);
}

TEST(BoxPlot, FiveNumberSummary) {
    Samples s;
    for (int i = 0; i <= 10; ++i) s.add(i);
    const auto box = BoxPlot::of(s);
    EXPECT_DOUBLE_EQ(box.min, 0.0);
    EXPECT_DOUBLE_EQ(box.median, 5.0);
    EXPECT_DOUBLE_EQ(box.max, 10.0);
    EXPECT_DOUBLE_EQ(box.q1, 2.5);
    EXPECT_DOUBLE_EQ(box.q3, 7.5);
    EXPECT_EQ(box.n, 11U);
    EXPECT_FALSE(box.to_string().empty());
}

TEST(Histogram, BucketsAndClamping) {
    Histogram h{0.0, 10.0, 10};
    h.add(0.5);
    h.add(5.5);
    h.add(-3.0);   // clamps into bucket 0
    h.add(100.0);  // clamps into bucket 9
    EXPECT_EQ(h.bucket(0), 2U);
    EXPECT_EQ(h.bucket(5), 1U);
    EXPECT_EQ(h.bucket(9), 1U);
    EXPECT_EQ(h.total(), 4U);
    EXPECT_DOUBLE_EQ(h.bucket_low(5), 5.0);
}

// -------------------------------------------------------------- table

TEST(TextTable, RendersAlignedColumns) {
    TextTable t{{"name", "value"}};
    t.add_row({"alpha", "1"});
    t.add_row({"b", "10000"});
    const auto text = t.render();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("10000"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
    EXPECT_EQ(t.rows(), 2U);
}

TEST(TextTable, Formatters) {
    EXPECT_EQ(TextTable::fmt(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::pct(0.885, 1), "88.5%");
}

// KeyIndex against std::unordered_map under insert/erase churn: a
// 96-key universe over a table that stays small, so probe runs collide
// and wrap and backward-shift deletion is exercised constantly.
TEST(KeyIndex, MatchesUnorderedMapUnderChurn) {
    std::vector<Key16> records;  // position -> key, positions reused
    std::vector<std::uint32_t> free;
    const auto key_of = [&records](std::uint32_t pos) -> const Key16& { return records[pos]; };
    KeyIndex index;
    std::unordered_map<Key16, std::uint32_t> model;
    Rng rng{5};
    for (int step = 0; step < 40'000; ++step) {
        const Key16 key = Key16::from_u64(rng.next_below(96));
        const auto it = model.find(key);
        if (rng.next_bool(0.55)) {
            const auto pos = free.empty() ? static_cast<std::uint32_t>(records.size()) : free.back();
            const std::uint32_t got = index.emplace(key, pos, key_of);
            if (it != model.end()) {
                ASSERT_EQ(got, it->second);
            } else {
                ASSERT_EQ(got, pos);
                if (free.empty()) {
                    records.push_back(key);
                } else {
                    records[pos] = key;
                    free.pop_back();
                }
                model.emplace(key, pos);
            }
        } else if (it != model.end()) {
            index.erase(key, key_of);
            free.push_back(it->second);
            model.erase(it);
        }
        ASSERT_EQ(index.size(), model.size());
        if (step % 64 == 0) {
            for (std::uint64_t k = 0; k < 100; ++k) {
                const Key16 probe = Key16::from_u64(k);
                const auto m = model.find(probe);
                ASSERT_EQ(index.find(probe, key_of), m == model.end() ? KeyIndex::kNone : m->second)
                    << "step " << step << " key " << k;
            }
        }
        if (step == 20'000) {  // a reset forgets everything
            index.reset(8);
            model.clear();
            records.clear();
            free.clear();
        }
    }
}

}  // namespace
}  // namespace daiet
