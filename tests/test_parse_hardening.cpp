// Regression tests for the parse-layer hardening: JSON \u escapes and the
// recursion cap, and flag value rejection (empty / out-of-range). Each case
// here failed (aborted, silently accepted garbage, or clamped) before the
// fixes. Fuzz round-trips pin the writer→parser seam.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace ckp {
namespace {

// ---------------------------------------------------------------------------
// JSON \u escapes.

TEST(JsonUnicode, DecodesAsciiEscape) {
  const JsonValue v = json_parse("\"a\\u0041b\"");
  EXPECT_EQ(v.as_string(), "aAb");
}

TEST(JsonUnicode, DecodesLatinEscapeToUtf8) {
  // U+00E9 (é) — rejected outright before the fix.
  const JsonValue v = json_parse("\"caf\\u00e9\"");
  EXPECT_EQ(v.as_string(), "caf\xC3\xA9");
}

TEST(JsonUnicode, DecodesThreeByteBmpEscape) {
  // U+2603 SNOWMAN.
  const JsonValue v = json_parse("\"\\u2603\"");
  EXPECT_EQ(v.as_string(), "\xE2\x98\x83");
}

TEST(JsonUnicode, DecodesSurrogatePairToFourByteUtf8) {
  // U+1F600 as the pair D83D DE00.
  const JsonValue v = json_parse("\"\\uD83D\\uDE00\"");
  EXPECT_EQ(v.as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonUnicode, SurrogatePairCaseInsensitiveHex) {
  const JsonValue v = json_parse("\"\\ud83d\\ude00\"");
  EXPECT_EQ(v.as_string(), "\xF0\x9F\x98\x80");
}

TEST(JsonUnicode, RejectsLoneHighSurrogate) {
  EXPECT_THROW(json_parse("\"\\uD83D\""), CheckFailure);
  EXPECT_THROW(json_parse("\"\\uD83Dx\""), CheckFailure);
  EXPECT_THROW(json_parse("\"\\uD83D\\n\""), CheckFailure);
}

TEST(JsonUnicode, RejectsLoneLowSurrogate) {
  EXPECT_THROW(json_parse("\"\\uDE00\""), CheckFailure);
}

TEST(JsonUnicode, RejectsHighSurrogateFollowedByNonLow) {
  EXPECT_THROW(json_parse("\"\\uD83D\\u0041\""), CheckFailure);
}

TEST(JsonUnicode, RejectsBadHexDigits) {
  EXPECT_THROW(json_parse("\"\\uZZZZ\""), CheckFailure);
  EXPECT_THROW(json_parse("\"\\u00g0\""), CheckFailure);
  // The seed parser ran strtol over unvalidated hex, so "\u 123" parsed as
  // 0x123 — now every digit is checked.
  EXPECT_THROW(json_parse("\"\\u 123\""), CheckFailure);
}

TEST(JsonUnicode, RejectsTruncatedEscape) {
  EXPECT_THROW(json_parse("\"\\u00\""), CheckFailure);
  EXPECT_THROW(json_parse("\"\\u"), CheckFailure);
}

TEST(JsonUnicode, EscapedStringRoundTripsThroughWriter) {
  // A parsed \u string re-emitted by the writer (as raw UTF-8) parses back
  // to the same bytes.
  const std::string decoded = json_parse("\"\\u00e9\\u2603\"").as_string();
  JsonWriter w;
  w.value(decoded);
  EXPECT_EQ(json_parse(w.str()).as_string(), decoded);
}

// ---------------------------------------------------------------------------
// JsonWriter escaping round trips. The writer's contract: the named C
// escapes for \n \r \t " \, \u00XX for every other control byte, and raw
// UTF-8 passthrough for everything >= 0x20 — and whatever it emits must
// parse back to the original bytes.

TEST(JsonEscape, ControlCharsEscapeAsU00XX) {
  const std::string raw("\x01\x08\x0c\x1f", 4);
  const std::string escaped = json_escape(raw);
  // \b and \f have no short form in this writer; all four become \u00XX.
  EXPECT_EQ(escaped, "\\u0001\\u0008\\u000c\\u001f");
  EXPECT_EQ(json_parse("\"" + escaped + "\"").as_string(), raw);
}

TEST(JsonEscape, NamedEscapesRoundTrip) {
  const std::string raw = "line1\nline2\r\ttabbed \"quoted\" back\\slash";
  EXPECT_EQ(json_escape(raw),
            "line1\\nline2\\r\\ttabbed \\\"quoted\\\" back\\\\slash");
  JsonWriter w;
  w.value(raw);
  EXPECT_EQ(json_parse(w.str()).as_string(), raw);
}

TEST(JsonEscape, Utf8PassesThroughUnescaped) {
  // 2-byte (é), 3-byte (snowman), and 4-byte (astral) sequences all pass
  // through the writer verbatim — no \uXXXX re-encoding.
  const std::string raw = "caf\xc3\xa9 \xe2\x98\x83 \xf0\x9f\x8c\x8d";
  const std::string escaped = json_escape(raw);
  EXPECT_EQ(escaped, raw);
  JsonWriter w;
  w.value(raw);
  EXPECT_EQ(json_parse(w.str()).as_string(), raw);
}

TEST(JsonEscape, SurrogatePairWriterParserSymmetry) {
  // Parser decodes a surrogate pair to 4-byte UTF-8; the writer re-emits
  // those bytes raw; parsing the writer's output returns the same string.
  // The two encodings of U+1F600 are interchangeable through the seam.
  const std::string from_pair = json_parse("\"\\ud83d\\ude00\"").as_string();
  EXPECT_EQ(from_pair, "\xf0\x9f\x98\x80");
  JsonWriter w;
  w.value(from_pair);
  EXPECT_EQ(w.str().find("\\u"), std::string::npos);
  EXPECT_EQ(json_parse(w.str()).as_string(), from_pair);

  // An embedded control char next to the astral char keeps both contracts.
  const std::string mixed = from_pair + '\n' + '\x02' + from_pair;
  JsonWriter w2;
  w2.value(mixed);
  EXPECT_EQ(json_parse(w2.str()).as_string(), mixed);
}

// ---------------------------------------------------------------------------
// JSON recursion cap.

TEST(JsonDepth, DeeplyNestedInputFailsCleanly) {
  // 100k unclosed '[' overflowed the stack before the cap; now it is a
  // CheckFailure long before the recursion gets dangerous.
  std::string deep(100000, '[');
  EXPECT_THROW(json_parse(deep), CheckFailure);
  std::string mixed;
  for (int i = 0; i < 50000; ++i) mixed += "[{\"k\":";
  EXPECT_THROW(json_parse(mixed), CheckFailure);
}

TEST(JsonDepth, ReasonableNestingStillParses) {
  std::string doc;
  for (int i = 0; i < 100; ++i) doc += '[';
  doc += "1";
  for (int i = 0; i < 100; ++i) doc += ']';
  const JsonValue v = json_parse(doc);
  EXPECT_TRUE(v.is_array());
}

// ---------------------------------------------------------------------------
// JSON fuzz: writer → parser round-trips.

std::string random_string(Rng& rng, int max_len) {
  const int len = static_cast<int>(rng.next_below(
      static_cast<std::uint64_t>(max_len + 1)));
  std::string s;
  for (int i = 0; i < len; ++i) {
    // Mix of ASCII (incl. controls and escapables) and UTF-8 continuation
    // bytes via 2-byte sequences.
    const std::uint64_t pick = rng.next_below(20);
    if (pick < 16) {
      s += static_cast<char>(rng.next_below(0x7F) + 1);
    } else {
      const unsigned cp = 0x80 + static_cast<unsigned>(rng.next_below(0x700));
      s += static_cast<char>(0xC0 | (cp >> 6));
      s += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }
  return s;
}

void build_random_value(Rng& rng, JsonWriter& w, int depth) {
  const std::uint64_t pick = rng.next_below(depth > 0 ? 6 : 4);
  switch (pick) {
    case 0: w.value(static_cast<std::int64_t>(rng()) >> 12); break;
    case 1: w.value(random_string(rng, 24)); break;
    case 2: w.value(rng.next_below(2) == 0); break;
    case 3: w.null(); break;
    case 4: {
      w.begin_array();
      const int len = static_cast<int>(rng.next_below(4));
      for (int i = 0; i < len; ++i) build_random_value(rng, w, depth - 1);
      w.end_array();
      break;
    }
    default: {
      w.begin_object();
      const int len = static_cast<int>(rng.next_below(4));
      for (int i = 0; i < len; ++i) {
        w.key("k" + std::to_string(i));
        build_random_value(rng, w, depth - 1);
      }
      w.end_object();
      break;
    }
  }
}

std::string rewrite(const JsonValue& v);

std::string rewrite(const JsonValue& v) {
  switch (v.type) {
    case JsonValue::Type::Null: return "null";
    case JsonValue::Type::Bool: return v.boolean ? "true" : "false";
    case JsonValue::Type::Number: return json_number(v.number);
    case JsonValue::Type::String:
      return '"' + json_escape(v.string) + '"';
    case JsonValue::Type::Array: {
      std::string out = "[";
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        if (i > 0) out += ',';
        out += rewrite(v.array[i]);
      }
      return out + "]";
    }
    case JsonValue::Type::Object: {
      std::string out = "{";
      for (std::size_t i = 0; i < v.object.size(); ++i) {
        if (i > 0) out += ',';
        out += '"' + json_escape(v.object[i].first) + "\":" +
               rewrite(v.object[i].second);
      }
      return out + "}";
    }
  }
  return "";
}

TEST(JsonFuzz, WriterParserRewriteFixedPoint) {
  // writer → parse → rewrite → parse → rewrite is a fixed point: the second
  // rewrite reproduces the first byte-for-byte (the stability the
  // checkpoint layer's verbatim re-emission rests on).
  Rng rng(0xF00D);
  for (int iter = 0; iter < 300; ++iter) {
    JsonWriter w;
    build_random_value(rng, w, 5);
    const std::string doc = w.str();
    const std::string once = rewrite(json_parse(doc));
    const std::string twice = rewrite(json_parse(once));
    EXPECT_EQ(once, twice) << "source doc: " << doc;
  }
}

TEST(JsonFuzz, EscapeParseRoundTripsArbitraryStrings) {
  Rng rng(0xE5C);
  for (int iter = 0; iter < 500; ++iter) {
    const std::string s = random_string(rng, 40);
    const JsonValue v = json_parse('"' + json_escape(s) + '"');
    EXPECT_EQ(v.as_string(), s);
  }
}

// ---------------------------------------------------------------------------
// Flags: empty and out-of-range values.

TEST(FlagsHardening, RejectsEmptyIntValue) {
  const char* argv[] = {"prog", "--n="};
  Flags f(2, argv);
  EXPECT_THROW(f.get_int("n", 7), CheckFailure);  // was silently 0
}

TEST(FlagsHardening, RejectsEmptyDoubleValue) {
  const char* argv[] = {"prog", "--x="};
  Flags f(2, argv);
  EXPECT_THROW(f.get_double("x", 1.0), CheckFailure);
}

TEST(FlagsHardening, RejectsOutOfRangeInt) {
  // strtoll clamps to INT64_MAX with ERANGE; the seed getter returned the
  // clamped value.
  const char* argv[] = {"prog", "--n=99999999999999999999999999"};
  Flags f(2, argv);
  EXPECT_THROW(f.get_int("n", 0), CheckFailure);
}

TEST(FlagsHardening, RejectsOutOfRangeNegativeInt) {
  const char* argv[] = {"prog", "--n=-99999999999999999999999999"};
  Flags f(2, argv);
  EXPECT_THROW(f.get_int("n", 0), CheckFailure);
}

TEST(FlagsHardening, RejectsOverflowingDouble) {
  const char* argv[] = {"prog", "--x=1e99999"};
  Flags f(2, argv);
  EXPECT_THROW(f.get_double("x", 0.0), CheckFailure);
}

TEST(FlagsHardening, AcceptsBoundaryInt64) {
  const char* argv[] = {"prog", "--a=9223372036854775807",
                        "--b=-9223372036854775808"};
  Flags f(3, argv);
  EXPECT_EQ(f.get_int("a", 0), std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(f.get_int("b", 0), std::numeric_limits<std::int64_t>::min());
}

TEST(FlagsHardening, RejectsEmptyOrHugeThreads) {
  {
    const char* argv[] = {"prog", "--threads="};
    Flags f(2, argv);
    EXPECT_THROW(f.get_threads(), CheckFailure);
  }
  {
    const char* argv[] = {"prog", "--threads=99999999999999999999"};
    Flags f(2, argv);
    EXPECT_THROW(f.get_threads(), CheckFailure);
  }
}

TEST(FlagsHardening, ValidValuesStillParse) {
  const char* argv[] = {"prog", "--n=42", "--x=2.5", "--threads=3"};
  Flags f(4, argv);
  EXPECT_EQ(f.get_int("n", 0), 42);
  EXPECT_DOUBLE_EQ(f.get_double("x", 0.0), 2.5);
  EXPECT_EQ(f.get_threads(), 3);
  f.check_unknown();
}

}  // namespace
}  // namespace ckp
