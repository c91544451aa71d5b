// Memory discipline under sustained hostile input (ISSUE 6 satellite).
//
// An adversary who cannot crash the parser can still try to grow it: feed
// garbage forever and hope error paths leak nodes, pin slabs, or balloon
// reassembly buffers. These tests flood the parse and streaming layers
// with inputs that overwhelmingly fail, and assert the memory envelope:
//
//   * the InstPool high-water mark (slabs) is set by the deepest single
//     parse, not by the number of failed inputs — flat across the flood;
//   * no parse error path leaks a checked-out node (live returns to 0);
//   * StreamReader::resync() recovery returns the reassembly buffer to
//     its drained state, flood after flood;
//   * Workspace::shrink() afterwards releases everything — retained
//     buffer capacity and idle pool slabs both return to zero, the
//     go-idle baseline.
#include <gtest/gtest.h>

#include <memory>

#include "core/protoobf.hpp"
#include "fuzz/mutator.hpp"
#include "fuzz_support.hpp"
#include "session/session.hpp"
#include "stream/channel.hpp"
#include "util/rng.hpp"

namespace protoobf {
namespace {

std::shared_ptr<const ObfuscatedProtocol> compile_netdemo() {
  auto graph = Framework::load_spec(fuzztest::kNetDemoSpec);
  EXPECT_TRUE(graph.ok());
  ObfuscationConfig cfg;
  cfg.seed = 90125;
  cfg.per_node = 2;
  auto protocol = Framework::generate(*graph, cfg);
  EXPECT_TRUE(protocol.ok()) << protocol.error().message;
  return std::make_shared<const ObfuscatedProtocol>(std::move(*protocol));
}

/// Hostile input mix: pure random garbage plus valid frames with their
/// front bytes mangled (fails deep inside the parse, where partially
/// built trees must be rolled back into the pool).
Bytes hostile_input(const fuzz::SeedFrame& base, Rng& rng) {
  if (rng.chance(0.5)) {
    Bytes garbage(1 + rng.below(96));
    rng.fill(garbage, garbage.size());
    return garbage;
  }
  Bytes mangled = base.wire;
  const std::size_t flips = 1 + rng.below(4);
  for (std::size_t i = 0; i < flips; ++i) {
    mangled[rng.below(mangled.size())] ^=
        static_cast<Byte>(rng.between(1, 255));
  }
  return mangled;
}

TEST(HostileMemory, PoolHighWaterStaysFlatAcrossAMalformedFlood) {
  const std::uint64_t seed = fuzztest::fuzz_seed(0x4057);
  SCOPED_TRACE(fuzztest::seed_note(seed));
  auto protocol = compile_netdemo();
  auto mutator = fuzz::WireMutator::create(*protocol, seed);
  ASSERT_TRUE(mutator.ok());

  Workspace ws;
  Rng rng(seed);
  std::uint64_t malformed = 0;

  // Warmup: a handful of parses (valid and hostile) establish the
  // high-water mark the flood must then hold.
  for (int i = 0; i < 32; ++i) {
    const Bytes input = i % 4 == 0 ? mutator->seeds().front().wire
                                   : hostile_input(mutator->seeds().front(),
                                                   rng);
    auto tree = protocol->parse(input, ws);
    (void)tree;
  }
  const std::size_t high_water = ws.nodes().stats().slabs;
  ASSERT_GT(high_water, 0u);
  ASSERT_EQ(ws.nodes().stats().live, 0u);

  constexpr std::uint64_t kFlood = 5000;
  for (std::uint64_t i = 0; i < kFlood; ++i) {
    const Bytes input = hostile_input(
        mutator->seeds()[i % mutator->seeds().size()], rng);
    {
      // A mangled frame occasionally still parses (the flip landed in
      // payload data); its tree must drop back to the pool before the
      // leak check below.
      auto tree = protocol->parse(input, ws);
      if (!tree.ok() && tree.error().kind == ErrorKind::Malformed) {
        ++malformed;
      }
    }
    ASSERT_EQ(ws.nodes().stats().live, 0u)
        << "error path leaked nodes at flood input " << i << "\n"
        << fuzztest::seed_note(seed);
  }
  EXPECT_GT(malformed, kFlood / 2)
      << "the flood is not actually hostile enough to test error paths";
  EXPECT_EQ(ws.nodes().stats().slabs, high_water)
      << "pool capacity tracked the input count instead of parse depth";

  // Go-idle: shrink releases every retained byte and every idle slab.
  ws.shrink();
  EXPECT_EQ(ws.retained(), 0u);
  EXPECT_EQ(ws.nodes().stats().slabs, 0u);
  EXPECT_EQ(ws.nodes().stats().live, 0u);
}

TEST(HostileMemory, ResyncReturnsReaderAndArenaToBaseline) {
  const std::uint64_t seed = fuzztest::fuzz_seed(0x4058);
  SCOPED_TRACE(fuzztest::seed_note(seed));
  auto protocol = compile_netdemo();
  auto mutator = fuzz::WireMutator::create(*protocol, seed);
  ASSERT_TRUE(mutator.ok());

  Session session(protocol);
  // A small frame cap makes hostile length prefixes fail fast instead of
  // stalling the stream waiting for gigabytes that never come.
  LengthPrefixFramer::Config framer_cfg;
  framer_cfg.max_frame_size = 4096;
  LengthPrefixFramer framer(framer_cfg);
  Channel channel(session, framer);

  Rng rng(seed ^ 0x9e37);
  constexpr int kRounds = 400;
  int failures = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Garbage burst: random bytes in random chunks. Most bursts forge a
    // hostile length prefix and fail framing; resync() must recover.
    Bytes burst(1 + rng.below(64));
    rng.fill(burst, burst.size());
    std::size_t fed = 0;
    while (fed < burst.size()) {
      const std::size_t step = std::min<std::size_t>(
          burst.size() - fed, static_cast<std::size_t>(rng.between(1, 11)));
      channel.on_bytes(BytesView(burst).subspan(fed, step));
      fed += step;
      while (channel.receive().has_value()) {
      }
    }
    if (channel.failed()) {
      ++failures;
      channel.resync();
    }

    // Every few rounds, prove the stream is alive again: a valid frame
    // must round-trip through the same channel. (Leftover garbage ahead
    // of it may first surface as more failures — resync through those.)
    if (round % 16 == 15) {
      Message msg(protocol->original());
      ASSERT_TRUE(msg.set("tag", to_bytes("OK")).ok());
      ASSERT_TRUE(msg.set("body", rng.bytes(4)).ok());
      auto framed = channel.send(msg.root(), static_cast<std::uint64_t>(round));
      ASSERT_TRUE(framed.ok());
      const Bytes wire(framed->begin(), framed->end());
      channel.on_bytes(wire);
      bool delivered = false;
      for (int guard = 0; guard < 4096 && !delivered; ++guard) {
        while (auto m = channel.receive()) {
          if (m->ok()) delivered = true;
        }
        if (delivered) break;
        if (channel.failed()) {
          ++failures;
          channel.resync();
          continue;
        }
        break;  // reader waits for more bytes: frame swallowed by garbage
      }
      if (!delivered) {
        // The valid frame landed inside a half-believed garbage frame;
        // flush the stream state and confirm recovery on a clean reader.
        channel.reader().reset();
        channel.on_bytes(wire);
        while (auto m = channel.receive()) {
          if (m->ok()) delivered = true;
        }
      }
      ASSERT_TRUE(delivered)
          << "channel never recovered at round " << round << "\n"
          << fuzztest::seed_note(seed);
    }

    // The recovery baseline: nothing parsed, so no live nodes; the
    // reassembly buffer holds at most the bytes of this burst plus one
    // unfinished frame header — never the flood's cumulative size.
    ASSERT_EQ(session.workspace().nodes().stats().live, 0u);
    ASSERT_LE(channel.reader().reassembly_size(), 8u * 1024u)
        << "reassembly grew with the flood at round " << round;
  }
  EXPECT_GT(failures, 0) << "the garbage never tripped framing — the "
                            "hostile path was not exercised";

  // Idle shrink: the reader drops reassembly capacity, the workspace drops
  // buffers and slabs. Baseline means zero retained everywhere.
  channel.reader().reset();
  session.workspace().shrink();
  EXPECT_EQ(session.workspace().retained(), 0u);
  EXPECT_EQ(session.workspace().nodes().stats().slabs, 0u);
}

TEST(HostileMemory, RetainedCountsEveryWorkspaceBuffer) {
  // A length holder that canonicalize measures and a ReadFromEnd region
  // that parse reverses through the scratch pool: a round trip fills the
  // derive scratch, the scope table, the mirrored-region pool and the node
  // slabs, not only the wire buffer. retained() must see all of them, or
  // the zero after shrink() proves nothing about them.
  auto graph = Framework::load_spec(R"(
protocol P
m: seq end {
  len: terminal fixed(2)
  body: terminal length(len)
  tail: terminal end
}
)");
  ASSERT_TRUE(graph.ok()) << graph.error().message;
  ObfuscationConfig cfg;
  cfg.seed = 5;
  cfg.per_node = 2;
  cfg.enabled = {TransformKind::ReadFromEnd};
  auto protocol = Framework::generate(*graph, cfg);
  ASSERT_TRUE(protocol.ok()) << protocol.error().message;
  ASSERT_GT(protocol->stats().per_kind[static_cast<std::size_t>(
                TransformKind::ReadFromEnd)],
            0u);

  Message msg(*graph);
  msg.set_text("body", "a length-measured body");
  msg.set_text("tail", "tail");
  Workspace ws;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ASSERT_TRUE(protocol->serialize_into(msg.root(), seed, ws.wire(), ws).ok());
    const Bytes wire = ws.wire();
    auto back = protocol->parse(wire, ws);
    ASSERT_TRUE(back.ok()) << back.error().message;
  }
  ASSERT_GT(ws.scratch().idle(), 0u) << "no mirrored region was parsed";
  EXPECT_GT(ws.retained(), ws.wire().capacity() + ws.frame().capacity());

  ws.shrink();
  EXPECT_EQ(ws.retained(), 0u);
}

}  // namespace
}  // namespace protoobf
