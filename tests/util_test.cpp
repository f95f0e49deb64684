#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>

#include "util/buffer.hpp"
#include "util/result.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace starfish::util {
namespace {

// ------------------------------------------------------------- Buffer ----

TEST(Buffer, WriteReadRoundtripLittleEndian) {
  Bytes b;
  Writer w(b, Endian::kLittle);
  w.u8(0xab);
  w.u16(0x1234);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f64(3.14159265358979);
  w.boolean(true);
  w.str("starfish");

  Reader r(as_bytes_view(b), Endian::kLittle);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159265358979);
  EXPECT_TRUE(r.flag("flag"));
  EXPECT_EQ(r.str(), "starfish");
  EXPECT_TRUE(r.exhausted());
  EXPECT_TRUE(r.finish("a test record").ok());
}

TEST(Buffer, BigEndianByteOrder) {
  Bytes b;
  Writer w(b, Endian::kBig);
  w.u32(0x01020304);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(std::to_integer<int>(b[0]), 1);
  EXPECT_EQ(std::to_integer<int>(b[3]), 4);

  Bytes little;
  Writer wl(little, Endian::kLittle);
  wl.u32(0x01020304);
  EXPECT_EQ(std::to_integer<int>(little[0]), 4);
  EXPECT_EQ(std::to_integer<int>(little[3]), 1);
}

TEST(Buffer, CrossEndianReadback) {
  Bytes b;
  Writer w(b, Endian::kBig);
  w.u64(0x1122334455667788ull);
  Reader r(as_bytes_view(b), Endian::kBig);
  EXPECT_EQ(r.u64(), 0x1122334455667788ull);
}

TEST(Buffer, ShortReadFailsGracefully) {
  Bytes b;
  Writer w(b);
  w.u16(7);
  Reader r(as_bytes_view(b));
  EXPECT_EQ(r.u16(), 7);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u32(), 0u);
  ASSERT_FALSE(r.ok());
  const Status fail = r.finish("a test record");
  ASSERT_FALSE(fail.ok());
  EXPECT_EQ(fail.error().code, "decode");
}

TEST(Buffer, BytesLengthPrefixBoundsChecked) {
  // A length prefix claiming more bytes than remain must error, not crash.
  Bytes b;
  Writer w(b);
  w.u32(1000);  // claims 1000 bytes follow
  w.u8(1);
  Reader r(as_bytes_view(b));
  EXPECT_TRUE(r.bytes().empty());
  EXPECT_FALSE(r.ok());
}

TEST(Buffer, RawReadExact) {
  Bytes b;
  Writer w(b);
  w.raw(std::as_bytes(std::span<const char>("abcd", 4)));
  Reader r(as_bytes_view(b));
  EXPECT_EQ(r.raw_view(4).size(), 4u);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.raw_view(1).empty());
  EXPECT_FALSE(r.ok());
}

// Property sweep: every u64 value survives both endiannesses.
class BufferEndianProperty : public ::testing::TestWithParam<Endian> {};

TEST_P(BufferEndianProperty, U64RoundtripRandomValues) {
  Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const uint64_t v = rng.next();
    Bytes b;
    Writer w(b, GetParam());
    w.u64(v);
    Reader r(as_bytes_view(b), GetParam());
    EXPECT_EQ(r.u64(), v);
  }
}

TEST_P(BufferEndianProperty, F64RoundtripRandomValues) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double v = (rng.uniform() - 0.5) * 1e18;
    Bytes b;
    Writer w(b, GetParam());
    w.f64(v);
    Reader r(as_bytes_view(b), GetParam());
    EXPECT_DOUBLE_EQ(r.f64(), v);
  }
}

INSTANTIATE_TEST_SUITE_P(BothEndians, BufferEndianProperty,
                         ::testing::Values(Endian::kLittle, Endian::kBig));

// ------------------------------------------------------------- Result ----

TEST(Result, ValueAndError) {
  Result<int> ok = 5;
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);

  Result<int> err = Error::make("nope", "broken");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.error().code, "nope");
}

TEST(Result, StatusOkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  Status bad = Error::make("x", "y");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().to_string(), "x: y");
}

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, RangeInclusive) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(2);
  double sum = 0;
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

// ------------------------------------------------------------ Strings ----

TEST(Strings, SplitAndJoin) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "|"), "a|b||c");
}

TEST(Strings, SplitWhitespace) {
  auto parts = split_ws("  SUBMIT  app  4 \t restart ");
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "SUBMIT");
  EXPECT_EQ(parts[3], "restart");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, TrimAndCase) {
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(to_upper("Login"), "LOGIN");
  EXPECT_EQ(to_lower("LoGiN"), "login");
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42").value_or(0), 42);
  EXPECT_EQ(parse_int(" -7 ").value_or(0), -7);
  EXPECT_FALSE(parse_int("12x").has_value());
  EXPECT_FALSE(parse_int("").has_value());
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(632 * 1024), "632.0 KB");
  EXPECT_EQ(format_bytes(135ull * 1024 * 1024), "135.00 MB");
}

}  // namespace
}  // namespace starfish::util
