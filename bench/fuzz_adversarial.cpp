// Adversarial fuzz throughput: how many structure-aware mutants per
// second the full invariant oracle (FuzzRunner::check — one-shot parse,
// chunk-split resumed replay, verdict agreement, pool-leak check) sustains
// per protocol arm. Two numbers matter:
//
//   * mutants/s — the cost of the robustness gate itself; this decides
//     how many iterations CI can afford and is the budget behind the
//     PROTOOBF_FUZZ_ITERS default;
//   * violations — must be zero; the bench doubles as a long-running
//     smoke of the hostile-bytes contract at iteration counts the unit
//     suite does not reach.
//
// Arms mirror the fuzz_wire_test campaign: a length-prefixed demo, the
// delimiter-heavy chat spec (obfuscated and identity — only the identity
// compilation keeps raw delimiter bytes on the wire), and Modbus requests
// driven by the paper's workload generator.
//
// Usage: bench_fuzz_adversarial [iters] [seed] [json_path]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "fuzz/mutator.hpp"
#include "fuzz/runner.hpp"
#include "harness.hpp"
#include "protocols/modbus.hpp"
#include "runtime/parse.hpp"

namespace {

using namespace protoobf;

constexpr std::string_view kNetDemoSpec = R"(
protocol NetDemo
msg: seq end {
  tag: terminal fixed(2)
  blen: terminal fixed(2)
  body: terminal length(blen)
}
)";

constexpr std::string_view kDelimSpec = R"(
protocol DelimChat
m: seq end {
  kind: terminal fixed(1)
  items: repeat delimited("$") {
    item: seq delimited("$") {
      ilen: terminal fixed(1)
      ival: terminal length(ilen)
    }
  }
  note: terminal delimited("\r\n") ascii
}
)";

struct ArmSpec {
  const char* name;
  std::string_view spec;
  int per_node;
  bool modbus_generator;
};

struct ArmResult {
  const char* name = "";
  bool whole_message = false;
  double mutants_per_sec = 0;
  double seconds = 0;
  fuzz::FuzzRunner::Totals totals;
  std::uint64_t resumed = 0;
  std::uint64_t suspensions = 0;
  std::size_t slabs = 0;
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t iters =
      argc > 1 ? std::strtoull(argv[1], nullptr, 0) : 20000;
  const std::uint64_t seed =
      argc > 2 ? std::strtoull(argv[2], nullptr, 0) : 0xF022;
  const char* json_path = argc > 3 ? argv[3] : "BENCH_fuzz.json";
  if (iters == 0) {
    std::fprintf(stderr,
                 "usage: bench_fuzz_adversarial [iters>0] [seed] [json]\n");
    return 2;
  }

  const ArmSpec arms[] = {
      {"netdemo", kNetDemoSpec, 2, false},
      {"delimchat", kDelimSpec, 2, false},
      {"delimchat-identity", kDelimSpec, 0, false},
      {"modbus-request", modbus::request_spec(), 2, true},
  };

  std::vector<ArmResult> results;
  for (const ArmSpec& arm : arms) {
    auto graph = Framework::load_spec(arm.spec);
    if (!graph.ok()) {
      std::fprintf(stderr, "%s: %s\n", arm.name,
                   graph.error().message.c_str());
      return 1;
    }
    ObfuscationConfig cfg;
    cfg.seed = 90125;
    cfg.per_node = arm.per_node;
    auto protocol = Framework::generate(*graph, cfg);
    if (!protocol.ok()) {
      std::fprintf(stderr, "%s: %s\n", arm.name,
                   protocol.error().message.c_str());
      return 1;
    }

    fuzz::WireMutator::Config mut_cfg;
    if (arm.modbus_generator) {
      mut_cfg.generator = [](const Graph& g, Rng& rng) {
        return ast::clone(modbus::random_request(g, rng).root());
      };
    }
    auto mutator = fuzz::WireMutator::create(*protocol, seed, mut_cfg);
    if (!mutator.ok()) {
      std::fprintf(stderr, "%s: %s\n", arm.name,
                   mutator.error().message.c_str());
      return 1;
    }

    fuzz::FuzzRunner::Config run_cfg;
    run_cfg.whole_message = !stream_safe(protocol->wire_graph()).ok();
    fuzz::FuzzRunner runner(*protocol, run_cfg);

    Rng chunks(seed ^ 0xC4A7);
    const auto start = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) {
      const fuzz::Mutant m = mutator->next();
      const std::string violation = runner.check(m.wire, chunks);
      if (!violation.empty()) {
        std::fprintf(stderr, "%s VIOLATION at iter %llu (%s): %s\n%s",
                     arm.name, static_cast<unsigned long long>(i), m.strategy,
                     violation.c_str(), hexdump(m.wire).c_str());
        return 1;
      }
    }

    ArmResult r;
    r.name = arm.name;
    r.whole_message = run_cfg.whole_message;
    r.seconds = seconds_since(start);
    r.mutants_per_sec = static_cast<double>(iters) / r.seconds;
    r.totals = runner.totals();
    r.resumed = runner.resume_stats().resumed;
    r.suspensions = runner.resume_stats().suspensions;
    r.slabs = runner.workspace().nodes().stats().slabs;
    results.push_back(r);
  }

  std::printf("fuzz_adversarial — %llu mutants/arm, campaign seed %llu\n",
              static_cast<unsigned long long>(iters),
              static_cast<unsigned long long>(seed));
  for (const ArmResult& r : results) {
    std::printf(
        "  %-20s %9.0f mutants/s  (%s; %llu parsed / %llu trunc / %llu "
        "malformed; %llu resumed; %zu slabs)\n",
        r.name, r.mutants_per_sec,
        r.whole_message ? "whole-message" : "chunk-resumed",
        static_cast<unsigned long long>(r.totals.parsed),
        static_cast<unsigned long long>(r.totals.truncated),
        static_cast<unsigned long long>(r.totals.malformed),
        static_cast<unsigned long long>(r.resumed), r.slabs);
  }

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"fuzz_adversarial\",\n"
                 "  \"iters_per_arm\": %llu,\n"
                 "  \"seed\": %llu,\n"
                 "  \"arms\": [\n",
                 static_cast<unsigned long long>(iters),
                 static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < results.size(); ++i) {
      const ArmResult& r = results[i];
      std::fprintf(
          f,
          "    {\"arm\": \"%s\", \"mode\": \"%s\", "
          "\"mutants_per_sec\": %.0f, \"parsed\": %llu, "
          "\"truncated\": %llu, \"malformed\": %llu, "
          "\"violations\": %llu, \"resumed\": %llu, "
          "\"suspensions\": %llu, \"pool_slabs\": %zu}%s\n",
          r.name, r.whole_message ? "whole-message" : "chunk-resumed",
          r.mutants_per_sec,
          static_cast<unsigned long long>(r.totals.parsed),
          static_cast<unsigned long long>(r.totals.truncated),
          static_cast<unsigned long long>(r.totals.malformed),
          static_cast<unsigned long long>(r.totals.violations),
          static_cast<unsigned long long>(r.resumed),
          static_cast<unsigned long long>(r.suspensions), r.slabs,
          i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("  wrote %s\n", json_path);
  }
  return 0;
}
