// Unit tests for the byte/RNG/statistics substrate.
#include <gtest/gtest.h>

#include "util/bytes.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace protoobf {
namespace {

TEST(Bytes, TextRoundTrip) {
  const Bytes b = to_bytes("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(to_text(b), "hello");
}

TEST(Bytes, HexRoundTrip) {
  const Bytes b{0xde, 0xad, 0x00, 0xff};
  EXPECT_EQ(to_hex(b), "dead00ff");
  EXPECT_EQ(from_hex("dead00ff").value(), b);
  EXPECT_EQ(from_hex("DEAD00FF").value(), b);
}

TEST(Bytes, HexRejectsBadInput) {
  EXPECT_FALSE(from_hex("abc").has_value());   // odd length
  EXPECT_FALSE(from_hex("zz").has_value());    // not hex
}

TEST(Bytes, FindLocatesFirstOccurrence) {
  const Bytes hay = to_bytes("a: b: c");
  const Bytes needle = to_bytes(": ");
  EXPECT_EQ(protoobf::find(hay, needle).value(), 1u);
  EXPECT_EQ(protoobf::find(hay, needle, 2).value(), 4u);
  EXPECT_FALSE(protoobf::find(hay, needle, 5).has_value());
}

TEST(Bytes, StartsWith) {
  const Bytes data = to_bytes("HTTP/1.1");
  EXPECT_TRUE(starts_with(data, to_bytes("HTTP")));
  EXPECT_FALSE(starts_with(data, to_bytes("http")));
  EXPECT_TRUE(starts_with(data, Bytes{}));
}

TEST(Bytes, AddSubMod256AreInverse) {
  const Bytes v{0x01, 0xff, 0x80, 0x00};
  const Bytes k{0xff, 0x01, 0x80, 0x10};
  Bytes sum;
  Bytes back;
  add_mod256_into(sum, v, k);
  EXPECT_EQ(sum, (Bytes{0x00, 0x00, 0x00, 0x10}));
  sub_mod256_into(back, sum, k);
  EXPECT_EQ(back, v);
  Bytes diff;
  sub_mod256_into(diff, v, k);
  add_mod256_into(back, diff, k);
  EXPECT_EQ(back, v);
}

TEST(Bytes, XorIsInvolution) {
  const Bytes v{0xaa, 0x55};
  const Bytes k{0x0f, 0xf0};
  Bytes once;
  Bytes twice;
  xor_bytes_into(once, v, k);
  EXPECT_EQ(once, (Bytes{0xa5, 0xa5}));
  xor_bytes_into(twice, once, k);
  EXPECT_EQ(twice, v);
}

TEST(Bytes, KeyedOpsCycleTheKey) {
  const Bytes v{1, 2, 3, 4, 5};
  const Bytes key{10, 20};
  Bytes data = v;
  add_key_in(data, key);
  EXPECT_EQ(data, (Bytes{11, 22, 13, 24, 15}));
  sub_key_in(data, key);
  EXPECT_EQ(data, v);
  xor_key_in(data, key);
  EXPECT_EQ(data, (Bytes{11, 22, 9, 16, 15}));
  xor_key_in(data, key);
  EXPECT_EQ(data, v);
}

TEST(Bytes, BigEndianRoundTrip) {
  EXPECT_EQ(be_encode(0x1234, 2), (Bytes{0x12, 0x34}));
  EXPECT_EQ(be_decode(Bytes{0x12, 0x34}), 0x1234u);
  EXPECT_EQ(be_decode(be_encode(0xdeadbeef, 4)), 0xdeadbeefu);
  // Width truncation wraps.
  EXPECT_EQ(be_encode(0x1ff, 1), (Bytes{0xff}));
}

TEST(Bytes, AsciiDecimal) {
  EXPECT_EQ(to_text(ascii_dec_encode(42)), "42");
  EXPECT_EQ(to_text(ascii_dec_encode(42, 4)), "0042");
  EXPECT_EQ(ascii_dec_decode(to_bytes("0042")).value(), 42u);
  EXPECT_FALSE(ascii_dec_decode(to_bytes("12a")).has_value());
  EXPECT_FALSE(ascii_dec_decode(Bytes{}).has_value());
}

TEST(Bytes, Reversed) {
  EXPECT_EQ(reversed(Bytes{1, 2, 3}), (Bytes{3, 2, 1}));
  EXPECT_EQ(reversed(Bytes{}), Bytes{});
}

TEST(Bytes, HexdumpShape) {
  const std::string dump = hexdump(to_bytes("hello world, this is a hexdump"));
  EXPECT_NE(dump.find("|hello world, thi|"), std::string::npos);
  EXPECT_NE(dump.find("00000010"), std::string::npos);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(10), 10u);
    const auto v = rng.between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
  }
}

TEST(Rng, BytesHaveRequestedSize) {
  Rng rng(1);
  EXPECT_EQ(rng.bytes(17).size(), 17u);
  EXPECT_TRUE(rng.bytes(0).empty());
}

TEST(Rng, ShuffleKeepsElements) {
  Rng rng(3);
  std::vector<int> v{1, 2, 3, 4, 5};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Result, ExpectedHoldsValueOrError) {
  Expected<int> ok(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 5);
  Expected<int> bad = Unexpected("boom", 12);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().message, "boom");
  EXPECT_EQ(bad.error().offset, 12u);
}

TEST(Result, StatusDefaultIsSuccess) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status f = Unexpected("nope");
  EXPECT_FALSE(f.ok());
}

TEST(Stats, SummaryComputesAvgMinMax) {
  const double samples[] = {1.0, 2.0, 6.0};
  const Summary s = Summary::of(samples);
  EXPECT_DOUBLE_EQ(s.avg, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 6.0);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.format(1), "3.0[1.0; 6.0]");
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> x, y;
  for (int i = 0; i < 50; ++i) {
    x.push_back(i);
    y.push_back(3.0 * i + 7.0);
  }
  const LinearFit fit = LinearFit::of(x, y);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.intercept, 7.0, 1e-9);
  EXPECT_NEAR(fit.correlation, 1.0, 1e-9);
}

TEST(Stats, CorrelationSignReflectsTrend) {
  const double x[] = {0, 1, 2, 3};
  const double y[] = {9, 7, 5, 3};
  EXPECT_LT(LinearFit::of(x, y).correlation, -0.99);
}

}  // namespace
}  // namespace protoobf
