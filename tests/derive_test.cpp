// Derived-field machinery tests: canonicalize (logical values against G1)
// and fix_holders (wire values against G(n+1) with lineage replay).
#include <gtest/gtest.h>

#include <iterator>

#include "core/protoobf.hpp"
#include "protocols/http.hpp"
#include "runtime/derive.hpp"
#include "runtime/emit.hpp"
#include "runtime/workspace.hpp"
#include "transform/exec.hpp"

namespace protoobf {
namespace {

Graph spec(std::string_view text) {
  auto g = Framework::load_spec(text);
  EXPECT_TRUE(g.ok()) << g.error().message;
  return std::move(g.value());
}

Status canon(const Graph& g, Inst& root) {
  Workspace ws;
  return canonicalize(g, root, canonical_holder_ids(g), ws);
}

Status presence(const Graph& g, Inst& root) {
  Workspace ws;
  return check_presence(g, root, ws);
}

TEST(FillConsts, FillsEmptyAndChecksNonEmpty) {
  Graph g = spec(R"(
protocol P
m: seq end {
  magic: terminal fixed(2) const(0xbeef)
  rest: terminal end
}
)");
  Message ok(g);
  ok.set_text("rest", "x");
  ASSERT_TRUE(fill_consts(g, ok.root()).ok());
  EXPECT_EQ(ok.get("magic").value(), (Bytes{0xbe, 0xef}));

  Message bad(g);
  bad.set("magic", Bytes{0x00, 0x01});
  bad.set_text("rest", "x");
  EXPECT_FALSE(fill_consts(g, bad.root()).ok());
}

TEST(Canonicalize, ComputesNestedLengths) {
  // Outer length covers a region containing an inner length field.
  Graph g = spec(R"(
protocol P
m: seq end {
  outer_len: terminal fixed(2)
  region: seq length(outer_len) {
    inner_len: terminal fixed(1)
    inner: terminal length(inner_len)
    pad: terminal fixed(2)
  }
}
)");
  Message msg(g);
  msg.set_text("inner", "abcdef");
  msg.set("pad", Bytes{0, 0});
  ASSERT_TRUE(canon(g, msg.root()).ok());
  EXPECT_EQ(msg.get_uint("inner_len").value(), 6u);
  EXPECT_EQ(msg.get_uint("outer_len").value(), 1u + 6 + 2);
}

TEST(Canonicalize, AsciiWidthReachesFixpoint) {
  // The ASCII length's own width is part of no region here, but its value
  // must size dynamically (1 digit vs 2 digits).
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal delimited(";") ascii
  payload: terminal length(len)
}
)");
  for (std::size_t n : {5u, 12u, 120u}) {
    Message msg(g);
    msg.set("payload", Bytes(n, 0x41));
    ASSERT_TRUE(canon(g, msg.root()).ok());
    EXPECT_EQ(msg.get_uint("len").value(), n);
  }
}

TEST(Canonicalize, OverwritesStaleUserValues) {
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  payload: terminal length(len)
}
)");
  Message msg(g);
  msg.set_uint("len", 9999);  // wrong on purpose: derived fields are owned
  msg.set_text("payload", "xy");
  ASSERT_TRUE(canon(g, msg.root()).ok());
  EXPECT_EQ(msg.get_uint("len").value(), 2u);
}

TEST(Canonicalize, RejectsOverflowingBinaryHolder) {
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(1)
  payload: terminal length(len)
}
)");
  Message msg(g);
  msg.set("payload", Bytes(300, 0));  // needs 2 bytes, field holds 1
  EXPECT_FALSE(canon(g, msg.root()).ok());
}

TEST(CheckPresence, DetectsBothMismatchDirections) {
  Graph g = spec(R"(
protocol P
m: seq end {
  kind: terminal fixed(1)
  x: optional (kind == 0x01) { xv: terminal fixed(1) }
  rest: terminal end
}
)");
  Message missing(g);
  missing.set_uint("kind", 1);  // condition true but optional absent
  missing.set_text("rest", "r");
  ASSERT_TRUE(canon(g, missing.root()).ok());
  EXPECT_FALSE(presence(g, missing.root()).ok());

  Message spurious(g);
  spurious.set_uint("kind", 0);
  spurious.set("xv", Bytes{1});  // materializes the optional
  spurious.set_text("rest", "r");
  ASSERT_TRUE(canon(g, spurious.root()).ok());
  EXPECT_FALSE(presence(g, spurious.root()).ok());
}

TEST(FixHolders, WireLengthTracksTransformedSize) {
  // SplitAdd under the measured region doubles the payload: the wire length
  // must be the doubled size, while the logical length stays the original.
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  payload: terminal length(len)
  rest: terminal end
}
)");
  ObfuscationConfig cfg;
  cfg.per_node = 1;
  cfg.seed = 21;
  cfg.enabled = {TransformKind::SplitAdd};
  auto p = Framework::generate(g, cfg).value();
  ASSERT_GE(p.stats().applied, 2u);  // at least len or payload split

  Message msg(g);
  msg.set_text("payload", "12345678");
  msg.set_text("rest", "R");
  auto wire = p.serialize(msg.root(), 4);
  ASSERT_TRUE(wire.ok()) << wire.error().message;

  auto back = p.parse(*wire);
  ASSERT_TRUE(back.ok()) << back.error().message;
  // The canonical (logical) view recomputes len = 8, not 16.
  const Inst* len = ast::find_path(g, **back, "m.len");
  EXPECT_EQ(be_decode(len->value), 8u);
}

TEST(FixHolders, SplitLengthFieldStillDelimits) {
  // The length holder itself is split: the parser must recombine the two
  // halves to learn the region size.
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  payload: terminal length(len)
  rest: terminal end
}
)");
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    ObfuscationConfig cfg;
    cfg.per_node = 2;
    cfg.seed = seed;
    auto p = Framework::generate(g, cfg).value();
    Message msg(g);
    msg.set_text("payload", "payload-bytes");
    msg.set_text("rest", "rest");
    auto wire = p.serialize(msg.root(), seed);
    ASSERT_TRUE(wire.ok()) << seed << ": " << wire.error().message;
    auto back = p.parse(*wire);
    ASSERT_TRUE(back.ok()) << seed << ": " << back.error().message;
    EXPECT_EQ(ast::find_path(g, **back, "m.payload")->value,
              to_bytes("payload-bytes"));
  }
}

TEST(FixHolders, CounterSurvivesValueTransforms) {
  Graph g = spec(R"(
protocol P
m: seq end {
  n: terminal fixed(1)
  items: tabular(n) { item: terminal fixed(2) }
  rest: terminal end
}
)");
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    ObfuscationConfig cfg;
    cfg.per_node = 2;
    cfg.seed = seed;
    auto p = Framework::generate(g, cfg).value();
    Message msg(g);
    for (int i = 0; i < 5; ++i) {
      msg.append("items");
      msg.set_uint("items[" + std::to_string(i) + "].item", 100 + i);
    }
    msg.set_text("rest", "!");
    auto wire = p.serialize(msg.root(), seed + 50);
    ASSERT_TRUE(wire.ok()) << seed << ": " << wire.error().message;
    auto back = p.parse(*wire);
    ASSERT_TRUE(back.ok()) << seed << ": " << back.error().message;
    EXPECT_EQ(ast::find_path(g, **back, "m.items")->children.size(), 5u);
    EXPECT_EQ(be_decode(ast::find_path(g, **back, "m.n")->value), 5u);
  }
}

// fix_holders() remembers each holder's logical value for one call in the
// reusable DeriveScratch. One workspace serializing messages of
// different shapes in turn (a one-header GET, a six-header POST with a
// body, the GET again) must never read a memo entry left by an earlier
// message: every image equals the plain serialize of the same input.
TEST(FixHolders, ReusedScratchAcrossMessageShapesMatchesPlain) {
  const Graph g = spec(http::request_spec());
  const Message get = http::make_get(g, "/status", {{"Host", "plc.local"}});
  const Message post = http::make_post(
      g, "/api/v1/registers",
      {{"Host", "plc.local"},
       {"User-Agent", "protoobf-test"},
       {"Accept", "application/json"},
       {"Content-Type", "application/x-www-form-urlencoded"},
       {"Connection", "keep-alive"},
       {"X-Request-Id", "4f1c2a"}},
      "address=64&quantity=3&values=1,2,3");
  const Message* sequence[] = {&get, &post, &get};

  for (const int per_node : {2, 4}) {
    ObfuscationConfig cfg;
    cfg.seed = 2018;
    cfg.per_node = per_node;
    auto p = Framework::generate(g, cfg).value();
    const HolderTable& table = p.holders();
    const std::vector<NodeId>& holders = p.canonical_holders();
    Workspace ws;
    for (std::size_t i = 0; i < std::size(sequence); ++i) {
      const Inst& message = sequence[i]->root();
      const std::uint64_t msg_seed = 31 + i;
      ASSERT_TRUE(p.serialize_into(message, msg_seed, ws.wire(), ws).ok());
      EXPECT_EQ(ws.wire(), p.serialize(message, msg_seed).value())
          << "per_node " << per_node << ", message " << i;

      // A second fixpoint over an already-fixed tree finds nothing to do.
      InstPtr tree = ast::copy(&ws.nodes(), message);
      ASSERT_TRUE(canonicalize(p.original(), *tree, holders, ws).ok());
      Rng rng(msg_seed);
      ASSERT_TRUE(forward_all(tree, p.journal(), rng, &ws.nodes()).ok());
      ASSERT_TRUE(fix_holders(p.wire_graph(), p.journal(), table, *tree,
                              msg_seed, ws)
                      .ok());
      const InstPtr fixed = ast::copy(nullptr, *tree);
      ASSERT_TRUE(fix_holders(p.wire_graph(), p.journal(), table, *tree,
                              msg_seed, ws)
                      .ok());
      EXPECT_TRUE(ast::equal(*tree, *fixed))
          << "per_node " << per_node << ", message " << i;
    }
  }
}

TEST(Derive, MirroredWireTreesRoundTrip) {
  // ReadFromEnd forced on every node: fix_holders measures mirrored wire
  // subtrees (reversed regions, delimiters read backwards) and the images
  // those lengths describe must still parse.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ObfuscationConfig cfg;
    cfg.seed = seed;
    cfg.per_node = 4;
    cfg.enabled = {TransformKind::ReadFromEnd, TransformKind::SplitCat,
                   TransformKind::BoundaryChange};
    auto p = Framework::generate(spec(http::request_spec()), cfg);
    ASSERT_TRUE(p.ok()) << p.error().message;
    ASSERT_GT(p->stats().per_kind[static_cast<std::size_t>(
                  TransformKind::ReadFromEnd)],
              0u);

    Rng rng(seed);
    for (std::uint64_t i = 0; i < 4; ++i) {
      Message msg = http::random_request(p->original(), rng);
      auto wire = p->serialize(msg.root(), 0xa110c + 31 * i);
      ASSERT_TRUE(wire.ok()) << wire.error().message;
      auto back = p->parse(*wire);
      ASSERT_TRUE(back.ok()) << back.error().message;
    }
  }
}

TEST(Derive, MeasurementFailsWithTheEmitError) {
  // A length measurement is a real emission of the measured region, so a
  // region that cannot be serialized fails canonicalize() with exactly the
  // error serializing the message reports.
  Graph g = spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  region: seq length(len) {
    body: terminal delimited("|")
    tail: terminal fixed(1)
  }
}
)");
  Message msg(g);
  msg.set("len", Bytes{0, 0});  // emit_into checks the holder's width
  msg.set_text("body", "ab|cd");
  msg.set_text("tail", "x");
  Bytes out;
  const Status emitted = emit_into(g, msg.root(), out);
  ASSERT_FALSE(emitted.ok());
  EXPECT_NE(emitted.error().message.find("contains its own delimiter"),
            std::string::npos)
      << emitted.error().message;
  const Status canonical = canon(g, msg.root());
  ASSERT_FALSE(canonical.ok());
  EXPECT_EQ(canonical.error().message, emitted.error().message);
}

TEST(Emit, SizeMatchesBuffer) {
  Graph g = spec(R"(
protocol P
m: seq end {
  a: terminal fixed(3)
  b: terminal delimited("!")
}
)");
  Message msg(g);
  msg.set("a", Bytes{1, 2, 3});
  msg.set_text("b", "bb");
  ASSERT_TRUE(canon(g, msg.root()).ok());
  Bytes out(16, 0xee);  // stale contents are replaced, not appended to
  ASSERT_TRUE(emit_into(g, msg.root(), out).ok());
  EXPECT_EQ(out, (Bytes{1, 2, 3, 'b', 'b', '!'}));
}

TEST(Emit, RejectsRepetitionElementStartingWithStopMarker) {
  Graph g = spec(R"(
protocol P
m: seq end {
  lines: repeat delimited("$") { line: terminal delimited("$") }
  rest: terminal end
}
)");
  Message msg(g);
  msg.append("lines");
  msg.set_text("lines[0].line", "");  // empty line -> element starts with $
  msg.set_text("rest", "x");
  ASSERT_TRUE(canon(g, msg.root()).ok());
  Bytes out;
  const Status emitted = emit_into(g, msg.root(), out);
  ASSERT_FALSE(emitted.ok());
  EXPECT_NE(emitted.error().message.find("starts with the stop marker"),
            std::string::npos)
      << emitted.error().message;
}

}  // namespace
}  // namespace protoobf
