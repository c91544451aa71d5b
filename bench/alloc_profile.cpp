// Allocation profile of the message hot path: heap allocations per message
// for serialize and parse, plain ObfuscatedProtocol calls vs. the pooled
// Session paths, plus a per-stage time table of the plain pipelines.
//
// Both paths run on a Workspace — the plain calls on a thread-local one,
// Session on its own — so a steady state performs O(1) heap allocations
// per message instead of O(nodes). The plain paths additionally copy their
// result out of the workspace: the wire image once, the parsed tree into
// heap nodes (O(logical nodes)). This bench counts real allocations with a
// global operator-new hook, after a warm-up that grows every pool to its
// high-water mark, and writes BENCH_alloc.json so CI can archive the
// trajectory.
//
// The stage table replays the plain serialize and parse pipelines stage by
// stage through the same public calls ObfuscatedProtocol makes, on one
// Workspace of its own, and prints the sum of the stages next to the
// end-to-end plain serialize+parse time of the same messages, so a change
// in end-to-end time can be traced to the layer that produced it. Each
// stage and the end-to-end time keep their best of `repeats` passes.
//
// Usage: bench_alloc_profile [messages] [repeats] [per_node] [json_path]
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>

#include "ast/ast.hpp"
#include "harness.hpp"
#include "runtime/derive.hpp"
#include "runtime/emit.hpp"
#include "runtime/parse.hpp"
#include "runtime/workspace.hpp"
#include "session/protocol_cache.hpp"
#include "session/session.hpp"
#include "transform/exec.hpp"

// --- operator-new hook ------------------------------------------------------
// Counts every heap allocation in the process. Deletes are deliberately
// uncounted: the metric is allocation traffic, not live bytes.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace protoobf;

std::uint64_t msg_seed_of(std::size_t i) {
  return 0x5e55 + 11400714819323198485ull * i;
}

/// Allocations per message across `repeats` passes of `body` over
/// `messages` messages.
template <typename Body>
double allocs_per_msg(std::size_t messages, int repeats, Body&& body) {
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int r = 0; r < repeats; ++r) body();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  return static_cast<double>(after - before) /
         static_cast<double>(messages * static_cast<std::size_t>(repeats));
}

// --- per-stage timing -------------------------------------------------------

enum Stage {
  kCopyCheck,
  kCanonicalize,
  kForward,
  kFixHolders,
  kEmit,
  kParseWire,
  kInverse,
  kCanonicalChecks,
  kResultCopy,
  kStages
};

constexpr const char* kStageNames[kStages] = {
    "copy+check", "canonicalize", "forward_all",      "fix_holders", "emit",
    "parse_wire", "inverse_all",  "canonical checks", "result copy"};

using Clock = std::chrono::steady_clock;

/// Wall nanoseconds of one pass over the messages.
struct PassNs {
  std::array<double, kStages> stage{};
  double end_to_end = 0;  // plain serialize + parse
};

/// One pass over `msgs`. Each message first runs the plain pipelines stage
/// by stage on `ws`, with the calls plain ObfuscatedProtocol::serialize
/// and parse make on their thread-local workspace (each tree is freed
/// inside the stage that ends its use), then once more end to end through
/// plain serialize and parse. Timing both per message puts them under the
/// same host conditions. False on any failure, or when the replayed stages
/// emit other bytes than serialize.
bool time_pass(const ObfuscatedProtocol& protocol,
               const std::vector<Message>& msgs, Workspace& ws, PassNs& ns) {
  const Graph& g1 = protocol.original();
  const Graph& wire = protocol.wire_graph();
  const Journal& journal = protocol.journal();
  const HolderTable& holders = protocol.holders();
  const std::vector<NodeId>& canon_holders = protocol.canonical_holders();
  for (std::size_t i = 0; i < msgs.size(); ++i) {
    const std::uint64_t msg_seed = msg_seed_of(i);
    Clock::time_point t = Clock::now();
    const auto lap = [&](double& total) {
      const Clock::time_point now = Clock::now();
      total += static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - t)
              .count());
      t = now;
    };

    if (!ast::check(g1, msgs[i].root())) return false;
    InstPtr tree = ast::copy(&ws.nodes(), msgs[i].root());
    lap(ns.stage[kCopyCheck]);
    if (!canonicalize(g1, *tree, canon_holders, ws) ||
        !check_presence(g1, *tree, ws)) {
      return false;
    }
    lap(ns.stage[kCanonicalize]);
    Rng rng(msg_seed);
    if (!forward_all(tree, journal, rng, &ws.nodes())) return false;
    lap(ns.stage[kForward]);
    if (!fix_holders(wire, journal, holders, *tree, msg_seed, ws)) {
      return false;
    }
    lap(ns.stage[kFixHolders]);
    if (!emit_into(wire, *tree, ws.wire())) return false;
    const Bytes out(ws.wire());
    tree.reset();
    lap(ns.stage[kEmit]);

    auto parsed = parse_wire(wire, journal, holders, out, ws);
    if (!parsed) return false;
    lap(ns.stage[kParseWire]);
    if (!inverse_all(*parsed, journal, &ws.nodes())) return false;
    lap(ns.stage[kInverse]);
    if (!fill_consts(g1, **parsed) ||
        !canonicalize(g1, **parsed, canon_holders, ws) ||
        !ast::check(g1, **parsed)) {
      return false;
    }
    lap(ns.stage[kCanonicalChecks]);
    InstPtr result = ast::copy(nullptr, **parsed);
    parsed->reset();
    result.reset();
    lap(ns.stage[kResultCopy]);

    auto image = protocol.serialize(msgs[i].root(), msg_seed);
    if (!image || !protocol.parse(*image)) return false;
    lap(ns.end_to_end);
    if (*image != out) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t messages =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 256;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 4;
  const int per_node = argc > 3 ? std::atoi(argv[3]) : 2;
  const char* json_path = argc > 4 ? argv[4] : "BENCH_alloc.json";
  if (messages == 0 || repeats <= 0 || per_node < 0) {
    std::fprintf(stderr,
                 "usage: bench_alloc_profile [messages>0] [repeats>0] "
                 "[per_node>=0] [json_path]\n");
    return 2;
  }

  bench::Workload workload = bench::http_workload();
  const Graph& g = workload.graphs[0];

  ObfuscationConfig config;
  config.seed = 2018;
  config.per_node = per_node;

  ProtocolCache cache;
  auto entry = cache.get_or_compile(g, ProtocolCache::hash_graph(g), config);
  if (!entry) {
    std::fprintf(stderr, "obfuscation failed: %s\n",
                 entry.error().message.c_str());
    return 1;
  }
  const ObfuscatedProtocol& protocol = **entry;

  Rng rng(7);
  std::vector<Message> msgs;
  msgs.reserve(messages);
  for (std::size_t i = 0; i < messages; ++i) {
    msgs.push_back(workload.make(0, g, rng));
  }

  // Session without a worker pool: the single-shard path is the hot loop a
  // connection handler runs, and keeps the numbers deterministic.
  Session session(*entry);

  std::vector<Bytes> wires;
  wires.reserve(messages);
  double tree_nodes = 0;
  for (std::size_t i = 0; i < messages; ++i) {
    auto wire = protocol.serialize(msgs[i].root(), msg_seed_of(i));
    if (!wire) {
      std::fprintf(stderr, "serialize failed: %s\n",
                   wire.error().message.c_str());
      return 1;
    }
    wires.push_back(std::move(*wire));
    tree_nodes += static_cast<double>(ast::count(msgs[i].root()));
  }
  tree_nodes /= static_cast<double>(messages);

  // Warm-up: two full rounds grow the workspace buffers (the session's and
  // this thread's), the node pools and the Bytes capacities inside recycled
  // nodes to their high-water marks.
  for (int r = 0; r < 2; ++r) {
    for (std::size_t i = 0; i < messages; ++i) {
      (void)session.serialize(msgs[i].root(), msg_seed_of(i));
      auto tree = session.parse(wires[i]);
      auto plain = protocol.parse(wires[i]);
      if (!tree || !plain) {
        std::fprintf(stderr, "parse failed: %s\n",
                     (tree ? plain : tree).error().message.c_str());
        return 1;
      }
    }
  }

  const double ser_plain = allocs_per_msg(messages, repeats, [&] {
    for (std::size_t i = 0; i < messages; ++i) {
      auto wire = protocol.serialize(msgs[i].root(), msg_seed_of(i));
      (void)wire;
    }
  });
  const double ser_session = allocs_per_msg(messages, repeats, [&] {
    for (std::size_t i = 0; i < messages; ++i) {
      (void)session.serialize(msgs[i].root(), msg_seed_of(i));
    }
  });
  const double parse_plain = allocs_per_msg(messages, repeats, [&] {
    for (const Bytes& wire : wires) {
      auto tree = protocol.parse(wire);
      (void)tree;
    }
  });
  const double parse_session = allocs_per_msg(messages, repeats, [&] {
    for (const Bytes& wire : wires) {
      auto tree = session.parse(wire);
      (void)tree;
    }
  });

  Workspace stage_ws;
  PassNs best;
  best.stage.fill(std::numeric_limits<double>::infinity());
  best.end_to_end = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    PassNs pass;
    if (!time_pass(protocol, msgs, stage_ws, pass)) {
      std::fprintf(stderr, "stage replay failed or disagreed\n");
      return 1;
    }
    for (int k = 0; k < kStages; ++k) {
      best.stage[k] = std::min(best.stage[k], pass.stage[k]);
    }
    best.end_to_end = std::min(best.end_to_end, pass.end_to_end);
  }
  const double per_msg_us = 1e-3 / static_cast<double>(messages);
  std::array<double, kStages> stage_us{};
  double stage_sum_us = 0;
  for (int k = 0; k < kStages; ++k) {
    stage_us[k] = best.stage[k] * per_msg_us;
    stage_sum_us += stage_us[k];
  }
  const double e2e_us = best.end_to_end * per_msg_us;

  const InstPool::Stats pool = session.workspace().nodes().stats();

  std::printf("alloc_profile — %s, per_node=%d, %zu msgs x %d repeats, "
              "%.1f logical nodes/msg\n",
              workload.name.c_str(), per_node, messages, repeats, tree_nodes);
  std::printf("  %-22s %10.2f allocs/msg\n", "serialize/plain", ser_plain);
  std::printf("  %-22s %10.2f allocs/msg\n", "serialize/session", ser_session);
  std::printf("  %-22s %10.2f allocs/msg\n", "parse/plain", parse_plain);
  std::printf("  %-22s %10.2f allocs/msg\n", "parse/session", parse_session);
  std::printf("  node pool: %zu hits, %zu misses, %zu slabs, %zu live\n",
              pool.hits, pool.misses, pool.slabs, pool.live);
  std::printf("  plain pipeline stages (best of %d, us/msg):\n", repeats);
  for (int k = 0; k < kStages; ++k) {
    std::printf("    %-18s %8.2f  %5.1f%%\n", kStageNames[k], stage_us[k],
                100.0 * stage_us[k] / stage_sum_us);
  }
  std::printf("    %-18s %8.2f\n", "stage sum", stage_sum_us);
  std::printf("    %-18s %8.2f  (stage sum / end-to-end %.3f)\n",
              "plain ser+parse", e2e_us, stage_sum_us / e2e_us);

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"alloc_profile\",\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"per_node\": %d,\n"
                 "  \"messages\": %zu,\n"
                 "  \"repeats\": %d,\n"
                 "  \"logical_nodes_per_msg\": %.2f,\n"
                 "  \"serialize_plain_allocs_per_msg\": %.3f,\n"
                 "  \"serialize_session_allocs_per_msg\": %.3f,\n"
                 "  \"parse_plain_allocs_per_msg\": %.3f,\n"
                 "  \"parse_session_allocs_per_msg\": %.3f,\n"
                 "  \"pool_hits\": %zu,\n"
                 "  \"pool_misses\": %zu,\n"
                 "  \"stage_us_per_msg\": {",
                 workload.name.c_str(), per_node, messages, repeats,
                 tree_nodes, ser_plain, ser_session, parse_plain,
                 parse_session, pool.hits, pool.misses);
    for (int k = 0; k < kStages; ++k) {
      std::fprintf(f, "%s\"%s\": %.3f", k == 0 ? "" : ", ", kStageNames[k],
                   stage_us[k]);
    }
    std::fprintf(f,
                 "},\n"
                 "  \"stage_sum_us_per_msg\": %.3f,\n"
                 "  \"plain_end_to_end_us_per_msg\": %.3f\n"
                 "}\n",
                 stage_sum_us, e2e_us);
    std::fclose(f);
    std::printf("  wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  return 0;
}
