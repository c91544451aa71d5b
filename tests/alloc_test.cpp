// Allocation-regression tests for the pooled message hot path.
//
// The InstPool/Workspace work promises that a warmed-up session serializes
// and parses without growing the node pool (zero freelist misses) while
// staying byte-identical to the plain ObfuscatedProtocol calls, that plain
// results stay heap-owned although the plain calls run on a thread-local
// Workspace, and that the derive fixpoints' length-measurement buffer is
// reused across messages. These tests pin those properties so a future
// change cannot silently reintroduce per-message heap churn, divergence or
// pool-backed plain results.
#include <gtest/gtest.h>

#include <thread>

#if defined(__SANITIZE_ADDRESS__)
#define PROTOOBF_TEST_LSAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PROTOOBF_TEST_LSAN 1
#endif
#endif
#ifdef PROTOOBF_TEST_LSAN
#include <sanitizer/lsan_interface.h>
#endif

#include "ast/pool.hpp"
#include "core/protoobf.hpp"
#include "protocols/http.hpp"
#include "protocols/modbus.hpp"
#include "session/protocol_cache.hpp"
#include "session/session.hpp"

namespace protoobf {
namespace {

ObfuscationConfig config_of(std::uint64_t seed, int per_node) {
  ObfuscationConfig cfg;
  cfg.seed = seed;
  cfg.per_node = per_node;
  return cfg;
}

std::uint64_t msg_seed_of(std::size_t i) { return 0xa110c + 31ull * i; }

/// True when no node of `inst` came from a pool.
bool heap_owned(const Inst& inst) {
  if (inst.pool != nullptr) return false;
  for (const InstPtr& child : inst.children) {
    if (!heap_owned(*child)) return false;
  }
  return true;
}

/// `message` with constants and derived fields filled in, as parse()
/// returns it.
InstPtr canonical_of(const ObfuscatedProtocol& protocol, const Inst& message) {
  InstPtr canonical = ast::copy(nullptr, message);
  EXPECT_TRUE(protocol.canonicalize(*canonical).ok());
  return canonical;
}

// --- InstPool mechanics -----------------------------------------------------

TEST(InstPool, RecyclesNodesAndValueCapacity) {
  InstPool pool;
  Bytes payload(100, 0xab);
  const Inst* first_node = nullptr;
  {
    InstPtr t = ast::terminal(&pool, 7, BytesView(payload));
    first_node = t.get();
    EXPECT_EQ(pool.stats().live, 1u);
    EXPECT_EQ(pool.stats().misses, 1u);
  }
  EXPECT_EQ(pool.stats().live, 0u);

  // The freed node comes back LIFO with its payload capacity intact.
  InstPtr again = ast::make(&pool, 9);
  EXPECT_EQ(again.get(), first_node);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_TRUE(again->value.empty());
  EXPECT_GE(again->value.capacity(), 100u);
  EXPECT_EQ(again->schema, 9u);
}

TEST(InstPool, ReleasesWholeTreesRecursively) {
  InstPool pool;
  {
    InstPtr root = ast::make(&pool, 0);
    for (int i = 1; i <= 3; ++i) {
      InstPtr child = ast::make(&pool, static_cast<NodeId>(i));
      child->children.push_back(
          ast::terminal(&pool, static_cast<NodeId>(10 + i), BytesView()));
      root->children.push_back(std::move(child));
    }
    EXPECT_EQ(pool.stats().live, 7u);
  }
  EXPECT_EQ(pool.stats().live, 0u);
}

TEST(InstPool, MixedHeapAndPoolTreesDestroySafely) {
  InstPool pool;
  InstPtr root = ast::make(nullptr, 0);  // heap root
  root->children.push_back(ast::make(&pool, 1));
  root->children[0]->children.push_back(ast::terminal(nullptr, 2, BytesView()));
  EXPECT_EQ(pool.stats().live, 1u);
  root.reset();
  EXPECT_EQ(pool.stats().live, 0u);
}

TEST(InstPool, DestroyedPoolDetachesSurvivingTrees) {
  // A tree outliving its pool is a contract violation; the pool must turn
  // it into a leak, never a use-after-free. The leak is the point, so
  // LeakSanitizer is told to look away.
#ifdef PROTOOBF_TEST_LSAN
  __lsan_disable();
#endif
  InstPtr survivor;
  {
    InstPool pool;
    survivor = ast::terminal(&pool, 1, BytesView());
  }
  survivor.reset();  // no-op delete: node memory was leaked with the slabs
#ifdef PROTOOBF_TEST_LSAN
  __lsan_enable();
#endif
  SUCCEED();
}

// --- steady-state allocation behaviour --------------------------------------

class AllocSteadyState : public ::testing::TestWithParam<bool> {};

TEST_P(AllocSteadyState, WarmSessionHasZeroPoolMisses) {
  const bool http = GetParam();
  ProtocolCache cache;
  auto entry = cache.get_or_compile(
      http ? http::request_spec() : modbus::request_spec(), config_of(11, 2));
  ASSERT_TRUE(entry.ok()) << entry.error().message;
  const ObfuscatedProtocol& protocol = **entry;

  Rng rng(42);
  const Graph& g = protocol.original();
  std::vector<Message> msgs;
  std::vector<Bytes> wires;
  for (std::size_t i = 0; i < 16; ++i) {
    msgs.push_back(http ? http::random_request(g, rng)
                        : modbus::random_request(g, rng));
    auto wire = protocol.serialize(msgs.back().root(), msg_seed_of(i));
    ASSERT_TRUE(wire.ok()) << wire.error().message;
    wires.push_back(std::move(*wire));
  }

  Session session(*entry);

  // Warm-up: grow the pool and every recycled buffer to steady state.
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      ASSERT_TRUE(session.serialize(msgs[i].root(), msg_seed_of(i)).ok());
      ASSERT_TRUE(session.parse(wires[i]).ok());
    }
  }

  const InstPool::Stats warm = session.workspace().nodes().stats();
  EXPECT_EQ(warm.live, 0u);

  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      ASSERT_TRUE(session.serialize(msgs[i].root(), msg_seed_of(i)).ok());
      ASSERT_TRUE(session.parse(wires[i]).ok());
    }
  }

  const InstPool::Stats steady = session.workspace().nodes().stats();
  EXPECT_EQ(steady.misses, warm.misses)
      << "steady-state session traffic grew the node pool";
  EXPECT_EQ(steady.slabs, warm.slabs);
  EXPECT_GT(steady.hits, warm.hits);
  EXPECT_EQ(steady.live, 0u);
}

TEST_P(AllocSteadyState, PooledPathsStayByteIdentical) {
  const bool http = GetParam();
  ProtocolCache cache;
  auto entry = cache.get_or_compile(
      http ? http::request_spec() : modbus::request_spec(), config_of(23, 3));
  ASSERT_TRUE(entry.ok()) << entry.error().message;
  const ObfuscatedProtocol& protocol = **entry;

  Rng rng(7);
  const Graph& g = protocol.original();
  Session session(*entry);

  // Plain calls (this thread's workspace) and Session calls (the session's)
  // interleave on one thread, in alternating order; every plain tree is
  // kept to the end, across all later calls of both kinds.
  std::vector<InstPtr> kept;
  std::vector<InstPtr> canonical;
  for (std::size_t i = 0; i < 24; ++i) {
    Message msg = http ? http::random_request(g, rng)
                       : modbus::random_request(g, rng);
    const bool session_first = i % 2 == 1;
    Expected<BytesView> pooled = Unexpected("not run");
    if (session_first) pooled = session.serialize(msg.root(), msg_seed_of(i));
    auto plain = protocol.serialize(msg.root(), msg_seed_of(i));
    if (!session_first) pooled = session.serialize(msg.root(), msg_seed_of(i));
    ASSERT_TRUE(plain.ok()) << plain.error().message;
    ASSERT_TRUE(pooled.ok()) << pooled.error().message;
    ASSERT_EQ(plain->size(), pooled->size());
    EXPECT_TRUE(std::equal(plain->begin(), plain->end(), pooled->begin()))
        << "message " << i << " diverged between plain and pooled serialize";

    Expected<InstPtr> pooled_tree = Unexpected("not run");
    if (session_first) pooled_tree = session.parse(*pooled);
    auto plain_tree = protocol.parse(*plain);
    if (!session_first) pooled_tree = session.parse(*pooled);
    ASSERT_TRUE(plain_tree.ok()) << plain_tree.error().message;
    ASSERT_TRUE(pooled_tree.ok()) << pooled_tree.error().message;
    EXPECT_TRUE(ast::equal(**plain_tree, **pooled_tree));
    EXPECT_TRUE(heap_owned(**plain_tree)) << "message " << i;
    kept.push_back(std::move(*plain_tree));
    canonical.push_back(canonical_of(protocol, msg.root()));
  }
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_TRUE(ast::equal(*kept[i], *canonical[i]))
        << "plain tree " << i << " changed under later calls";
  }
}

INSTANTIATE_TEST_SUITE_P(Protocols, AllocSteadyState, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Http" : "Modbus";
                         });

// --- plain API on the thread-local workspace --------------------------------

// Plain parse runs on the calling thread's Workspace but returns a heap
// copy: the tree may outlive that thread and die on another one. A result
// still drawn from the thread's pool would be detached and leaked when the
// thread exits (LeakSanitizer) or freed from the wrong thread.
TEST(PlainApi, ParseResultOutlivesItsThread) {
  ProtocolCache cache;
  auto entry = cache.get_or_compile(http::request_spec(), config_of(5, 2));
  ASSERT_TRUE(entry.ok()) << entry.error().message;
  const ObfuscatedProtocol& protocol = **entry;
  Rng rng(3);
  const Message msg = http::random_request(protocol.original(), rng);
  const auto wire = protocol.serialize(msg.root(), 9);
  ASSERT_TRUE(wire.ok()) << wire.error().message;

  Expected<InstPtr> tree = Unexpected("not run");
  std::thread worker([&] { tree = protocol.parse(*wire); });
  worker.join();

  ASSERT_TRUE(tree.ok()) << tree.error().message;
  EXPECT_TRUE(heap_owned(**tree));
  EXPECT_TRUE(ast::equal(**tree, *canonical_of(protocol, msg.root())));
  tree = Unexpected("dropped");  // destroyed here, on the main thread
}

// A plain result does not alias the thread's workspace: 16 more plain
// serialize/parse calls on the same thread leave it unchanged.
TEST(PlainApi, ResultSurvivesLaterPlainCalls) {
  ProtocolCache cache;
  auto entry = cache.get_or_compile(http::request_spec(), config_of(6, 3));
  ASSERT_TRUE(entry.ok()) << entry.error().message;
  const ObfuscatedProtocol& protocol = **entry;
  Rng rng(4);
  const Message first = http::random_request(protocol.original(), rng);
  const auto first_wire = protocol.serialize(first.root(), 1);
  ASSERT_TRUE(first_wire.ok()) << first_wire.error().message;
  auto kept = protocol.parse(*first_wire);
  ASSERT_TRUE(kept.ok()) << kept.error().message;

  for (std::size_t i = 0; i < 16; ++i) {
    const Message other = http::random_request(protocol.original(), rng);
    const auto wire = protocol.serialize(other.root(), msg_seed_of(i));
    ASSERT_TRUE(wire.ok()) << wire.error().message;
    ASSERT_TRUE(protocol.parse(*wire).ok());
  }
  EXPECT_TRUE(heap_owned(**kept));
  EXPECT_TRUE(ast::equal(**kept, *canonical_of(protocol, first.root())));
}

// --- length-measurement buffer ---------------------------------------------

TEST(DeriveScratch, MeasurementBufferIsReusedAndShrinkReleasesIt) {
  // The derive fixpoints measure lengths by emitting the measured subtree
  // into the workspace's DeriveScratch::measured. Once warm, that buffer
  // keeps one capacity and the node pool stops growing; shrink() hands the
  // buffer's memory back.
  ProtocolCache cache;
  auto entry = cache.get_or_compile(modbus::request_spec(), config_of(11, 4));
  ASSERT_TRUE(entry.ok()) << entry.error().message;
  const ObfuscatedProtocol& protocol = **entry;

  Rng rng(42);
  std::vector<Message> msgs;
  for (std::size_t i = 0; i < 16; ++i) {
    msgs.push_back(modbus::random_request(protocol.original(), rng));
  }
  Session session(*entry);
  const auto serialize_all = [&] {
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      ASSERT_TRUE(session.serialize(msgs[i].root(), msg_seed_of(i)).ok());
    }
  };

  Workspace& ws = session.workspace();
  for (int round = 0; round < 2; ++round) serialize_all();
  const std::size_t warm_capacity = ws.derive().measured.capacity();
  const InstPool::Stats warm = ws.nodes().stats();
  EXPECT_GT(warm_capacity, 0u);

  for (int round = 0; round < 4; ++round) serialize_all();
  EXPECT_EQ(ws.derive().measured.capacity(), warm_capacity);
  EXPECT_EQ(ws.nodes().stats().misses, warm.misses)
      << "steady-state session serialize grew the node pool";

  ws.shrink();
  EXPECT_EQ(ws.derive().measured.capacity(), 0u);
  serialize_all();  // a shrunk workspace serializes again from cold
}

}  // namespace
}  // namespace protoobf
