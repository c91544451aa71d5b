// Runtime serializer/parser tests: every boundary kind, derived fields,
// error handling on malformed wire input, and the per-element reference
// scoping (TLV pattern).
#include <gtest/gtest.h>

#include "core/protoobf.hpp"
#include "runtime/derive.hpp"
#include "runtime/emit.hpp"

namespace protoobf {
namespace {

Graph spec(std::string_view text) {
  auto g = Framework::load_spec(text);
  EXPECT_TRUE(g.ok()) << g.error().message;
  return std::move(g.value());
}

ObfuscatedProtocol plain(const Graph& g) {
  ObfuscationConfig cfg;
  cfg.per_node = 0;
  return Framework::generate(g, cfg).value();
}

// --- boundary kinds, plain (o = 0) ------------------------------------------

TEST(Runtime, FixedAndEndBoundaries) {
  Graph g = spec(R"(
protocol P
m: seq end {
  a: terminal fixed(2)
  rest: terminal end
}
)");
  auto p = plain(g);
  Message msg(g);
  msg.set("a", Bytes{0xca, 0xfe});
  msg.set("rest", to_bytes("rest-of-message"));
  auto wire = p.serialize(msg.root(), 1);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(to_hex(BytesView(*wire).first(2)), "cafe");
  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(ast::find_path(g, **back, "m.rest")->value,
            to_bytes("rest-of-message"));
}

TEST(Runtime, DelimitedBoundaryScansFirstOccurrence) {
  Graph g = spec(R"(
protocol P
m: seq end {
  word: terminal delimited(";")
  rest: terminal end
}
)");
  auto p = plain(g);
  Message msg(g);
  msg.set_text("word", "alpha");
  msg.set_text("rest", "beta;gamma");  // delimiter inside a later field is fine
  auto wire = p.serialize(msg.root(), 1);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(to_text(*wire), "alpha;beta;gamma");
  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(ast::find_path(g, **back, "m.word")->value, to_bytes("alpha"));
}

TEST(Runtime, SerializerRejectsValueContainingItsDelimiter) {
  Graph g = spec(R"(
protocol P
m: seq end {
  word: terminal delimited(";")
  rest: terminal end
}
)");
  auto p = plain(g);
  Message msg(g);
  msg.set_text("word", "al;pha");  // would break the receiver's scan
  msg.set_text("rest", "x");
  EXPECT_FALSE(p.serialize(msg.root(), 1).ok());
}

TEST(Runtime, LengthFieldIsDerivedNotUserSet) {
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  payload: terminal length(len)
  rest: terminal end
}
)");
  auto p = plain(g);
  Message msg(g);
  msg.set_text("payload", "0123456789");
  msg.set_text("rest", "!!");
  // len was never set: the framework derives 10.
  auto wire = p.serialize(msg.root(), 1);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ((*wire)[0], 0);
  EXPECT_EQ((*wire)[1], 10);
  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(ast::find_path(g, **back, "m.payload")->value,
            to_bytes("0123456789"));
}

TEST(Runtime, AsciiLengthField) {
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal delimited(";") ascii
  payload: terminal length(len)
}
)");
  auto p = plain(g);
  Message msg(g);
  msg.set_text("payload", "hello world");
  auto wire = p.serialize(msg.root(), 1);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(to_text(*wire), "11;hello world");
  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok());
}

TEST(Runtime, TabularCountIsDerived) {
  Graph g = spec(R"(
protocol P
m: seq end {
  n: terminal fixed(1)
  items: tabular(n) { item: terminal fixed(2) }
}
)");
  auto p = plain(g);
  Message msg(g);
  for (int i = 0; i < 3; ++i) {
    msg.append("items");
    msg.set_uint("items[" + std::to_string(i) + "].item", 0x0a00 + i);
  }
  auto wire = p.serialize(msg.root(), 1);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(to_hex(*wire), "030a000a010a02");
  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(ast::find_path(g, **back, "m.items")->children.size(), 3u);
}

TEST(Runtime, EmptyTabularRoundTrips) {
  Graph g = spec(R"(
protocol P
m: seq end {
  n: terminal fixed(1)
  items: tabular(n) { item: terminal fixed(2) }
  rest: terminal end
}
)");
  auto p = plain(g);
  Message msg(g);
  msg.set_text("rest", "z");
  auto wire = p.serialize(msg.root(), 1);
  ASSERT_TRUE(wire.ok());
  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(ast::find_path(g, **back, "m.items")->children.empty());
}

TEST(Runtime, TlvPerElementLengths) {
  // The reference-scoping stress case: each element carries its own length.
  Graph g = spec(R"(
protocol P
m: seq end {
  records: repeat end {
    record: seq {
      rlen: terminal fixed(1)
      rval: terminal length(rlen)
    }
  }
}
)");
  auto p = plain(g);
  Message msg(g);
  const char* values[] = {"a", "bcd", "", "efghij"};
  for (int i = 0; i < 4; ++i) {
    msg.append("records");
    msg.set_text("records[" + std::to_string(i) + "].record.rval", values[i]);
  }
  auto wire = p.serialize(msg.root(), 1);
  ASSERT_TRUE(wire.ok()) << wire.error().message;
  EXPECT_EQ(to_hex(*wire), "016103626364000665666768696a");
  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  const Inst* records = ast::find_path(g, **back, "m.records");
  ASSERT_EQ(records->children.size(), 4u);
  EXPECT_EQ(records->children[1]->children[1]->value, to_bytes("bcd"));
}

TEST(Runtime, OptionalPresenceFollowsCondition) {
  Graph g = spec(R"(
protocol P
m: seq end {
  kind: terminal fixed(1)
  extra: optional (kind == 0x02) { ev: terminal fixed(2) }
  rest: terminal end
}
)");
  auto p = plain(g);

  Message with(g);
  with.set_uint("kind", 2);
  with.set("ev", Bytes{0xaa, 0xbb});
  with.set_text("rest", "x");
  auto wire = p.serialize(with.root(), 1);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(to_hex(*wire), "02aabb78");

  Message without(g);
  without.set_uint("kind", 1);
  without.set_text("rest", "x");
  auto wire2 = p.serialize(without.root(), 1);
  ASSERT_TRUE(wire2.ok());
  EXPECT_EQ(to_hex(*wire2), "0178");

  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(ast::find_path(g, **back, "m.extra")->present);
  auto back2 = p.parse(*wire2);
  ASSERT_TRUE(back2.ok());
  EXPECT_FALSE(ast::find_path(g, **back2, "m.extra")->present);
}

TEST(Runtime, SerializerRejectsPresenceConditionMismatch) {
  Graph g = spec(R"(
protocol P
m: seq end {
  kind: terminal fixed(1)
  extra: optional (kind == 0x02) { ev: terminal fixed(2) }
  rest: terminal end
}
)");
  auto p = plain(g);
  Message msg(g);
  msg.set_uint("kind", 1);     // condition says absent...
  msg.set("ev", Bytes{1, 2});  // ...but the application filled the field
  msg.set_text("rest", "x");
  const auto result = p.serialize(msg.root(), 1);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("condition"), std::string::npos);
}

TEST(Runtime, RepetitionStopMarker) {
  Graph g = spec(R"(
protocol P
m: seq end {
  lines: repeat delimited("$") { line: terminal delimited("$") }
  rest: terminal end
}
)");
  auto p = plain(g);
  Message msg(g);
  msg.append("lines");
  msg.append("lines");
  msg.set_text("lines[0].line", "one");
  msg.set_text("lines[1].line", "two");
  msg.set_text("rest", "tail");
  auto wire = p.serialize(msg.root(), 1);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(to_text(*wire), "one$two$$tail");
  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(ast::find_path(g, **back, "m.lines")->children.size(), 2u);
}

// --- malformed wire input -----------------------------------------------------

class MalformedWire : public ::testing::Test {
 protected:
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  payload: terminal length(len)
  word: terminal delimited(";")
  n: terminal fixed(1)
  items: tabular(n) { item: terminal fixed(2) }
}
)");
  ObfuscatedProtocol p = plain(g);

  Bytes good_wire() {
    Message msg(g);
    msg.set_text("payload", "abc");
    msg.set_text("word", "w");
    msg.append("items");
    msg.set_uint("items[0].item", 7);
    return p.serialize(msg.root(), 1).value();
  }
};

TEST_F(MalformedWire, GoodWireParses) {
  EXPECT_TRUE(p.parse(good_wire()).ok());
}

TEST_F(MalformedWire, TruncatedInputFails) {
  Bytes wire = good_wire();
  ASSERT_FALSE(wire.empty());
  wire.pop_back();
  const auto result = p.parse(wire);
  ASSERT_FALSE(result.ok());
}

TEST_F(MalformedWire, TrailingGarbageFails) {
  Bytes wire = good_wire();
  wire.push_back(0x00);
  const auto result = p.parse(wire);
  ASSERT_FALSE(result.ok());
}

TEST_F(MalformedWire, LengthBeyondBufferFails) {
  Bytes wire = good_wire();
  wire[1] = 0xff;  // length 0x00ff >> actual payload
  const auto result = p.parse(wire);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("length"), std::string::npos);
}

TEST_F(MalformedWire, MissingDelimiterFails) {
  Bytes wire = good_wire();
  for (auto& b : wire) {
    if (b == ';') b = ':';
  }
  const auto result = p.parse(wire);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("delimiter"), std::string::npos);
}

TEST_F(MalformedWire, CounterBeyondBufferFails) {
  Bytes wire = good_wire();
  wire[wire.size() - 3] = 9;  // n = 9 but only one item follows
  EXPECT_FALSE(p.parse(wire).ok());
}

TEST_F(MalformedWire, EmptyInputFails) {
  EXPECT_FALSE(p.parse(Bytes{}).ok());
}

// --- obfuscated integrity ------------------------------------------------------

TEST(RuntimeObfuscated, ConstantFieldMismatchIsRejected) {
  Graph g = spec(R"(
protocol P
m: seq end {
  magic: terminal fixed(2) const(0x1234)
  rest: terminal end
}
)");
  ObfuscationConfig cfg;
  cfg.per_node = 1;
  cfg.seed = 3;
  cfg.enabled = {TransformKind::ConstXor};
  auto p = Framework::generate(g, cfg).value();
  Message msg(g);
  msg.set_text("rest", "x");
  Bytes wire = p.serialize(msg.root(), 1).value();
  ASSERT_TRUE(p.parse(wire).ok());
  // Corrupt the (obfuscated) magic: the parse must reject the message when
  // the recovered constant no longer matches the specification.
  wire[0] ^= 0x55;
  const auto result = p.parse(wire);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("constant"), std::string::npos);
}

TEST(RuntimeObfuscated, FieldSpansCoverTheWire) {
  Graph g = spec(R"(
protocol P
m: seq end {
  a: terminal fixed(2)
  b: terminal fixed(3)
  c: terminal end
}
)");
  ObfuscationConfig cfg;
  cfg.per_node = 2;
  cfg.seed = 11;
  auto p = Framework::generate(g, cfg).value();
  Message msg(g);
  msg.set("a", Bytes{1, 2});
  msg.set("b", Bytes{3, 4, 5});
  msg.set("c", Bytes{6, 7});
  std::vector<FieldSpan> spans;
  auto wire = p.serialize(msg.root(), 1, &spans);
  ASSERT_TRUE(wire.ok());
  ASSERT_FALSE(spans.empty());
  std::size_t covered = 0;
  for (const FieldSpan& span : spans) {
    EXPECT_LE(span.offset + span.length, wire->size());
    covered += span.length;
  }
  EXPECT_EQ(covered, wire->size());  // terminals partition the buffer
}

TEST(RuntimeObfuscated, MirroredWholeMessage) {
  Graph g = spec(R"(
protocol P
m: seq end {
  a: terminal fixed(2)
  b: terminal end
}
)");
  ObfuscationConfig cfg;
  cfg.per_node = 1;
  cfg.seed = 5;
  cfg.enabled = {TransformKind::ReadFromEnd};
  auto p = Framework::generate(g, cfg).value();
  ASSERT_GT(p.stats().applied, 0u);
  Message msg(g);
  msg.set("a", Bytes{0x11, 0x22});
  msg.set_text("b", "tail");
  auto wire = p.serialize(msg.root(), 1);
  ASSERT_TRUE(wire.ok());
  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  EXPECT_EQ(ast::find_path(g, **back, "m.a")->value, (Bytes{0x11, 0x22}));
}

}  // namespace
}  // namespace protoobf
