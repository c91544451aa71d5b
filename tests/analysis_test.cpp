// Static analyzer tests (ISSUE 10 tentpole).
//
// Two halves:
//
//   1. Golden diagnostics — for every diagnostic id the analyzer can emit,
//      one artifact where it MUST fire and one close sibling where it must
//      NOT. Spec-reachable findings are crafted as spec text; the
//      artifact-integrity errors (PO-E004/E005/E006) cannot come out of a
//      validated engine run, so those use analyze_parts() with hand-built
//      corrupt graphs/journals/holder tables.
//
//   2. Clean sweeps — every spec the repo ships (specs/ directory, the
//      fuzzer's registry, the protocol library, every crasher-corpus
//      compile) must lint with zero error-severity findings, at identity
//      and at obfuscation depth across seeds. Each sweep compile also
//      checks the shared min-need against real wire: every serialized
//      message is at least min_wire_size() long, and on stream-safe
//      compilations every shorter prefix of one parses as Truncated.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "core/protoobf.hpp"
#include "fuzz/random_message.hpp"
#include "fuzz/runner.hpp"
#include "fuzz_support.hpp"
#include "protocols/modbus.hpp"
#include "runtime/parse.hpp"
#include "runtime/workspace.hpp"
#include "transform/lineage.hpp"
#include "util/bytes.hpp"

#ifndef PROTOOBF_SPECS_DIR
#define PROTOOBF_SPECS_DIR "specs"
#endif
#ifndef PROTOOBF_CORPUS_DIR
#define PROTOOBF_CORPUS_DIR "tests/corpus/crashers"
#endif

namespace protoobf {
namespace {

using analysis::Severity;

Graph load(std::string_view spec) {
  auto graph = Framework::load_spec(spec);
  EXPECT_TRUE(graph.ok()) << graph.error().message;
  return std::move(*graph);
}

analysis::Report lint_spec(std::string_view spec) {
  return analysis::analyze_graph(load(spec));
}

/// Compiles `spec` at the given depth/seed and lints the artifact.
analysis::Report lint_compiled(std::string_view spec, int per_node,
                               std::uint64_t seed) {
  Graph g1 = load(spec);
  ObfuscationConfig cfg;
  cfg.seed = seed;
  cfg.per_node = per_node;
  auto protocol = Framework::generate(g1, cfg);
  EXPECT_TRUE(protocol.ok()) << protocol.error().message;
  return analysis::analyze(*protocol);
}

std::string ids_of(const analysis::Report& report) {
  std::string out;
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (!out.empty()) out += ", ";
    out += d.id;
  }
  return out;
}

// Hand-built graph helpers (graph_test.cpp idiom) for the corrupt-artifact
// diagnostics that no validated spec can reach.
NodeId add_terminal(Graph& g, const std::string& name, BoundaryKind b,
                    std::size_t size = 1) {
  Node n;
  n.name = name;
  n.type = NodeType::Terminal;
  n.boundary = b;
  n.fixed_size = size;
  if (b == BoundaryKind::Delimited) n.delimiter = to_bytes("|");
  return g.add_node(n);
}

NodeId add_composite(Graph& g, const std::string& name, NodeType t,
                     BoundaryKind b, std::vector<NodeId> children) {
  Node n;
  n.name = name;
  n.type = t;
  n.boundary = b;
  if (b == BoundaryKind::Delimited) n.delimiter = to_bytes("|");
  const NodeId id = g.add_node(n);
  for (NodeId child : children) {
    g.node(id).children.push_back(child);
    g.node(child).parent = id;
  }
  return id;
}

// --- PO-E001 fixed-region-overflow ------------------------------------------

TEST(AnalysisGolden, E001FiresWhenMandatoryContentExceedsFixedRegion) {
  const auto report = lint_spec(R"(
protocol BadFixed
m: seq end {
  head: seq fixed(2) {
    a: terminal fixed(4)
  }
  z: terminal fixed(1)
}
)");
  ASSERT_TRUE(report.has("PO-E001")) << ids_of(report);
  EXPECT_FALSE(report.clean());
  EXPECT_EQ(report.find("PO-E001")->path, "m.head");
}

TEST(AnalysisGolden, E001SilentWhenContentFits) {
  const auto report = lint_spec(R"(
protocol GoodFixed
m: seq end {
  head: seq fixed(4) {
    a: terminal fixed(4)
  }
  z: terminal fixed(1)
}
)");
  EXPECT_FALSE(report.has("PO-E001")) << ids_of(report);
  EXPECT_TRUE(report.clean());
}

// --- PO-E002 length-region-overflow -----------------------------------------

TEST(AnalysisGolden, E002FiresWhenHolderCannotExpressMandatoryContent) {
  // A 1-byte binary holder tops out at 255; the region demands 300.
  const auto report = lint_spec(R"(
protocol BadLength
m: seq end {
  l: terminal fixed(1)
  body: seq length(l) {
    blob: terminal fixed(300)
  }
}
)");
  ASSERT_TRUE(report.has("PO-E002")) << ids_of(report);
  EXPECT_EQ(report.find("PO-E002")->path, "m.body");
}

TEST(AnalysisGolden, E002SilentWhenHolderIsWideEnough) {
  const auto report = lint_spec(R"(
protocol GoodLength
m: seq end {
  l: terminal fixed(2)
  body: seq length(l) {
    blob: terminal fixed(300)
  }
}
)");
  EXPECT_FALSE(report.has("PO-E002")) << ids_of(report);
  EXPECT_TRUE(report.clean());
}

// --- PO-E003 stop-marker-shadowed -------------------------------------------

constexpr std::string_view kShadowedSpecTemplate = R"(
protocol Shadow
m: seq end {
  items: repeat delimited("$") {
    item: seq delimited("$") {
      tag: terminal fixed(1) const("%")
      len: terminal fixed(1)
      val: terminal length(len)
    }
  }
  z: terminal fixed(1)
}
)";

std::string shadowed_spec(char tag_const) {
  std::string spec(kShadowedSpecTemplate);
  spec[spec.find('%')] = tag_const;
  return spec;
}

TEST(AnalysisGolden, E003FiresWhenEveryElementStartsWithTheStopMarker) {
  const auto report = lint_spec(shadowed_spec('$'));
  ASSERT_TRUE(report.has("PO-E003")) << ids_of(report);
  EXPECT_EQ(report.find("PO-E003")->path, "m.items");
  // E003 subsumes the ambiguity warning for the same repetition.
  EXPECT_FALSE(report.has("PO-W101"));
}

TEST(AnalysisGolden, E003SilentWhenElementsStartWithAnotherConstant) {
  const auto report = lint_spec(shadowed_spec('A'));
  EXPECT_FALSE(report.has("PO-E003")) << ids_of(report);
  // The element's first byte is pinned to 'A', so the marker overlap
  // warning must not fire either.
  EXPECT_FALSE(report.has("PO-W101"));
  EXPECT_TRUE(report.clean());
}

// --- PO-W101 ambiguous-stop-marker ------------------------------------------

TEST(AnalysisGolden, W101FiresWhenElementFirstByteOverlapsMarker) {
  // DelimChat's element starts with a free binary byte: 0x24 ('$') is in
  // its first-byte domain, so the decoder cannot decide marker-vs-element.
  const auto report = lint_spec(fuzztest::kDelimSpec);
  ASSERT_TRUE(report.has("PO-W101")) << ids_of(report);
  EXPECT_EQ(report.find("PO-W101")->path, "m.items");
  EXPECT_TRUE(report.clean());
}

// (The W101-negative is E003SilentWhenElementsStartWithAnotherConstant:
// same shape, element first byte pinned off the marker.)

// --- PO-W102 delimiter-in-scan / PO-N202 collision note ---------------------

TEST(AnalysisGolden, W102FiresForBinaryContentContainingItsDelimiter) {
  const auto report = lint_spec(R"(
protocol ScanBin
m: seq end {
  raw: terminal delimited("|") binary
  z: terminal fixed(1)
}
)");
  ASSERT_TRUE(report.has("PO-W102")) << ids_of(report);
  EXPECT_EQ(report.find("PO-W102")->path, "m.raw");
  EXPECT_FALSE(report.has("PO-N202"));
}

TEST(AnalysisGolden, N202FiresForPrintableTextUnderPrintableDelimiter) {
  // The HTTP-header contract: an ascii application field delimited by
  // printable bytes is a documented escaping obligation, not a defect.
  const auto report = lint_spec(R"(
protocol ScanText
m: seq end {
  title: terminal delimited("|") ascii
  z: terminal fixed(1)
}
)");
  ASSERT_TRUE(report.has("PO-N202")) << ids_of(report);
  EXPECT_EQ(report.find("PO-N202")->severity, Severity::Note);
  EXPECT_FALSE(report.has("PO-W102"));
}

TEST(AnalysisGolden, ScanChecksSilentForDigitHolderUnderNonDigitDelimiter) {
  // A length holder's content domain is '0'..'9'; ';' is outside it, so
  // the scan can never be cut short and neither finding fires.
  const auto report = lint_spec(R"(
protocol ScanHolder
m: seq end {
  elen: terminal delimited(";") ascii
  edata: terminal length(elen)
}
)");
  EXPECT_FALSE(report.has("PO-W102")) << ids_of(report);
  EXPECT_FALSE(report.has("PO-N202")) << ids_of(report);
}

// --- PO-W103 unbounded-frame / PO-N201 datagram safety ----------------------

constexpr std::string_view kTinySpec = R"(
protocol Tiny
m: seq end {
  l: terminal fixed(1)
  b: terminal length(l)
}
)";

TEST(AnalysisGolden, W103FiresOnUnboundedRepetitionAndNamesTheCulprit) {
  const auto report = lint_spec(fuzztest::kDelimSpec);
  ASSERT_TRUE(report.has("PO-W103")) << ids_of(report);
  EXPECT_EQ(report.find("PO-W103")->path, "m.items");
  EXPECT_FALSE(report.max_wire.has_value());
  EXPECT_FALSE(report.is_datagram_safe);
  EXPECT_TRUE(report.has("PO-N201"));
}

TEST(AnalysisGolden, W103AndN201SilentOnSmallBoundedFrame) {
  const auto report = lint_spec(kTinySpec);
  EXPECT_FALSE(report.has("PO-W103")) << ids_of(report);
  EXPECT_FALSE(report.has("PO-N201")) << ids_of(report);
  ASSERT_TRUE(report.max_wire.has_value());
  EXPECT_EQ(*report.max_wire, 256u);  // 1 + 255
  EXPECT_TRUE(report.is_datagram_safe);
  EXPECT_EQ(report.min_need, 1u);
}

TEST(AnalysisGolden, N201FiresWhenWorstCaseExceedsTheMtu) {
  // Bounded (no W103) but 2-byte length holder: worst case 65539 > 65507.
  const auto report = lint_spec(fuzztest::kNetDemoSpec);
  EXPECT_FALSE(report.has("PO-W103")) << ids_of(report);
  ASSERT_TRUE(report.has("PO-N201")) << ids_of(report);
  EXPECT_FALSE(report.is_datagram_safe);
  ASSERT_TRUE(report.max_wire.has_value());
  EXPECT_GT(*report.max_wire, 65507u);
}

TEST(AnalysisGolden, DatagramSafeHelperHonorsTheMtuArgument) {
  Graph g = load(kTinySpec);
  EXPECT_TRUE(analysis::datagram_safe(g));
  EXPECT_TRUE(analysis::datagram_safe(g, 256));
  EXPECT_FALSE(analysis::datagram_safe(g, 255));
}

// --- PO-W104 counter-saturation ---------------------------------------------

TEST(AnalysisGolden, W104FiresWhenASaturatedCounterClaimExplodes) {
  // A 4-byte counter skewed to 0xff claims ~4 billion 2-byte rows.
  const auto report = lint_spec(R"(
protocol BigTable
m: seq end {
  n: terminal fixed(4)
  t: tabular(n) {
    row: terminal fixed(2)
  }
}
)");
  ASSERT_TRUE(report.has("PO-W104")) << ids_of(report);
  EXPECT_EQ(report.find("PO-W104")->path, "m.t");
}

TEST(AnalysisGolden, W104FiresWhenTheCountIsStaticallyUnbounded) {
  const auto report = lint_spec(R"(
protocol FreeCount
m: seq end {
  n: terminal delimited(";") ascii
  t: tabular(n) {
    row: terminal fixed(2)
  }
}
)");
  ASSERT_TRUE(report.has("PO-W104")) << ids_of(report);
  EXPECT_NE(report.find("PO-W104")->message.find("unbounded"),
            std::string::npos);
}

TEST(AnalysisGolden, W104SilentForNarrowCounters) {
  // 255 two-byte rows max: well under the 1 MiB claim limit.
  const auto report = lint_spec(R"(
protocol SmallTable
m: seq end {
  n: terminal fixed(1)
  t: tabular(n) {
    row: terminal fixed(2)
  }
}
)");
  EXPECT_FALSE(report.has("PO-W104")) << ids_of(report);
  EXPECT_TRUE(report.clean());
}

// --- PO-W105 seed-invariant-bytes / PO-N203 static fingerprint --------------

constexpr std::string_view kMagicSpec = R"(
protocol Magic
m: seq end {
  magic: terminal fixed(2) const(0xbeef)
  l: terminal fixed(1)
  b: terminal length(l)
}
)";

TEST(AnalysisGolden, N203FiresOnConstantBytesOfAnIdentityCompilation) {
  const auto report = lint_spec(kMagicSpec);
  ASSERT_TRUE(report.has("PO-N203")) << ids_of(report);
  EXPECT_FALSE(report.has("PO-W105"));
  EXPECT_EQ(report.find("PO-N203")->path, "m.magic");
  EXPECT_NE(report.find("PO-N203")->message.find("offset 0"),
            std::string::npos);
}

TEST(AnalysisGolden, N203SilentWhenNothingOnTheWireIsConstant) {
  const auto report = lint_spec(fuzztest::kNetDemoSpec);
  EXPECT_FALSE(report.has("PO-N203")) << ids_of(report);
  EXPECT_FALSE(report.has("PO-W105")) << ids_of(report);
}

TEST(AnalysisGolden, W105FiresWhenObfuscationLeavesAStaticFingerprint) {
  // A journal whose only entry re-keys the magic constant in place: the
  // bytes change with the key, but within THIS artifact every message
  // still carries the same two bytes at offset 0 — a DPI anchor the
  // obfuscation failed to move.
  Graph g = load(kMagicSpec);
  const NodeId magic = g.find_by_name("magic").value();
  AppliedTransform t;
  t.kind = TransformKind::ConstXor;
  t.target = magic;
  t.replacement = magic;
  t.key = Bytes{0x5a};
  const Journal journal{t};
  const auto report =
      analysis::analyze_parts(g, journal, HolderTable{});
  ASSERT_TRUE(report.has("PO-W105")) << ids_of(report);
  EXPECT_FALSE(report.has("PO-N203"));
  EXPECT_EQ(report.find("PO-W105")->path, "m.magic");
}

// --- PO-W106 not-stream-safe ------------------------------------------------

TEST(AnalysisGolden, W106FiresOnTrailingEndTerminalAndMatchesRuntime) {
  const auto report = lint_spec(fuzztest::kTortureSpec);
  ASSERT_TRUE(report.has("PO-W106")) << ids_of(report);
  EXPECT_FALSE(report.is_stream_safe);
  Graph g = load(fuzztest::kTortureSpec);
  EXPECT_FALSE(stream_safe(g).ok());
}

TEST(AnalysisGolden, W106FiresOncePerViolationAndRuntimeNamesTheFirst) {
  // Two stream-open nodes that cannot delimit themselves: a split half,
  // then a terminal that runs to the end of the input.
  Graph g("TwoOpen");
  const NodeId head = add_terminal(g, "head", BoundaryKind::Fixed, 1);
  const NodeId half = add_terminal(g, "half", BoundaryKind::Half);
  const NodeId tail = add_terminal(g, "tail", BoundaryKind::End);
  g.set_root(add_composite(g, "m", NodeType::Sequence, BoundaryKind::End,
                           {head, half, tail}));
  const auto report =
      analysis::analyze_parts(g, Journal{}, HolderTable{});
  std::vector<std::string> paths;
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.id == "PO-W106") paths.push_back(d.path);
  }
  EXPECT_EQ(paths, (std::vector<std::string>{"m.half", "m.tail"}))
      << ids_of(report);
  EXPECT_FALSE(report.is_stream_safe);
  const Status runtime = stream_safe(g);
  ASSERT_FALSE(runtime.ok());
  EXPECT_NE(runtime.error().message.find("'half'"), std::string::npos)
      << runtime.error().message;
  EXPECT_EQ(runtime.error().message.find("'tail'"), std::string::npos)
      << runtime.error().message;
}

TEST(AnalysisGolden, W106SilentOnStreamSafeSpec) {
  const auto report = lint_spec(fuzztest::kNetDemoSpec);
  EXPECT_FALSE(report.has("PO-W106")) << ids_of(report);
  EXPECT_TRUE(report.is_stream_safe);
}

// --- PO-W107 possibly-empty-element -----------------------------------------

TEST(AnalysisGolden, W107FiresWhenARepetitionElementCanBeEmpty) {
  // `item` is a bare length region whose holder sits OUTSIDE the
  // repetition: a zero-valued holder makes the element consume nothing.
  const auto report = lint_spec(R"(
protocol EmptyElem
m: seq end {
  n: terminal fixed(1)
  items: repeat delimited("$") {
    item: terminal length(n)
  }
  z: terminal fixed(1)
}
)");
  ASSERT_TRUE(report.has("PO-W107")) << ids_of(report);
  EXPECT_EQ(report.find("PO-W107")->path, "m.items.item");
}

TEST(AnalysisGolden, W107SilentWhenElementsHaveMandatoryBytes) {
  // DelimChat's element carries a fixed tag byte plus its own delimiter.
  const auto report = lint_spec(fuzztest::kDelimSpec);
  EXPECT_FALSE(report.has("PO-W107")) << ids_of(report);
}

// --- PO-E004 holder-chain-corrupt (hand-built artifact) ---------------------

TEST(AnalysisGolden, E004FiresOnOutOfRangeChainIndex) {
  Graph g = load(kTinySpec);
  HolderTable ht;
  HolderInfo h;
  h.origin = g.find_by_name("l").value();
  h.top = h.origin;
  h.chain = {3};  // journal is empty: index 3 cannot exist
  ht.holders.push_back(h);
  const auto report = analysis::analyze_parts(g, Journal{}, ht);
  ASSERT_TRUE(report.has("PO-E004")) << ids_of(report);
  EXPECT_FALSE(report.clean());
}

TEST(AnalysisGolden, E004FiresOnNonIncreasingChain) {
  Graph g = load(kTinySpec);
  Journal journal(3);  // three inert entries so indices 0..2 are valid
  for (AppliedTransform& t : journal) t.kind = TransformKind::ChildMove;
  HolderTable ht;
  HolderInfo h;
  h.origin = g.find_by_name("l").value();
  h.top = h.origin;
  h.chain = {2, 1};
  ht.holders.push_back(h);
  const auto report = analysis::analyze_parts(g, journal, ht);
  ASSERT_TRUE(report.has("PO-E004")) << ids_of(report);
  EXPECT_NE(report.find("PO-E004")->message.find("strictly increasing"),
            std::string::npos);
}

TEST(AnalysisGolden, E004SilentOnWellFormedChains) {
  // The real thing: every holder table the engine builds must pass.
  const auto report = lint_compiled(fuzztest::kDelimSpec, 2, 7);
  EXPECT_FALSE(report.has("PO-E004")) << ids_of(report);
}

// --- PO-E005 holder-dependency-cycle (hand-built artifact) ------------------

TEST(AnalysisGolden, E005FiresOnALengthReferenceCycle) {
  Graph g("Cycle");
  const NodeId a = add_terminal(g, "a", BoundaryKind::Length);
  const NodeId b = add_terminal(g, "b", BoundaryKind::Length);
  g.node(a).ref = b;
  g.node(b).ref = a;
  g.set_root(add_composite(g, "m", NodeType::Sequence, BoundaryKind::End,
                           {a, b}));
  const auto report =
      analysis::analyze_parts(g, Journal{}, HolderTable{});
  ASSERT_TRUE(report.has("PO-E005")) << ids_of(report);
  EXPECT_FALSE(report.clean());
}

TEST(AnalysisGolden, E005SilentOnAcyclicReferences) {
  const auto report = lint_spec(kTinySpec);
  EXPECT_FALSE(report.has("PO-E005")) << ids_of(report);
}

// --- PO-E006 random-bytes-under-scan (hand-built artifact) ------------------

TEST(AnalysisGolden, E006FiresWhenAPadSitsInsideAScannedRegion) {
  Graph g("PadScan");
  const NodeId pad = add_terminal(g, "pad", BoundaryKind::Fixed, 2);
  const NodeId body = add_terminal(g, "body", BoundaryKind::Fixed, 1);
  const NodeId wrap = add_composite(g, "wrap", NodeType::Sequence,
                                    BoundaryKind::Delimited, {pad, body});
  const NodeId z = add_terminal(g, "z", BoundaryKind::Fixed, 1);
  g.set_root(add_composite(g, "m", NodeType::Sequence, BoundaryKind::End,
                           {wrap, z}));
  AppliedTransform t;
  t.kind = TransformKind::PadInsert;
  t.target = wrap;
  t.replacement = wrap;
  t.created_a = pad;
  t.pad_size = 2;
  const auto report =
      analysis::analyze_parts(g, Journal{t}, HolderTable{});
  ASSERT_TRUE(report.has("PO-E006")) << ids_of(report);
  EXPECT_EQ(report.find("PO-E006")->path, "m.wrap.pad");
}

TEST(AnalysisGolden, E006SilentWhenThePadIsOutsideEveryScan) {
  Graph g("PadFree");
  const NodeId pad = add_terminal(g, "pad", BoundaryKind::Fixed, 2);
  const NodeId body = add_terminal(g, "body", BoundaryKind::Fixed, 1);
  g.set_root(add_composite(g, "m", NodeType::Sequence, BoundaryKind::End,
                           {pad, body}));
  AppliedTransform t;
  t.kind = TransformKind::PadInsert;
  t.target = g.root();
  t.replacement = g.root();
  t.created_a = pad;
  t.pad_size = 2;
  const auto report =
      analysis::analyze_parts(g, Journal{t}, HolderTable{});
  EXPECT_FALSE(report.has("PO-E006")) << ids_of(report);
}

// --- report plumbing --------------------------------------------------------

TEST(AnalysisReport, ErrorsSortBeforeWarningsAndNotes) {
  const auto report = lint_spec(shadowed_spec('$'));
  ASSERT_FALSE(report.diagnostics.empty());
  for (std::size_t i = 1; i < report.diagnostics.size(); ++i) {
    EXPECT_GE(static_cast<int>(report.diagnostics[i - 1].severity),
              static_cast<int>(report.diagnostics[i].severity));
  }
}

TEST(AnalysisReport, SummaryNamesErrorIdsAndCountsOtherwise) {
  EXPECT_NE(analysis::summary(lint_spec(shadowed_spec('$')))
                .find("PO-E003"),
            std::string::npos);
  EXPECT_EQ(analysis::summary(lint_spec(kTinySpec)),
            "clean (0 warnings, 0 notes)");
}

TEST(AnalysisReport, JsonRenderingCarriesTheVerdictAndEveryDiagnostic) {
  const auto report = lint_spec(fuzztest::kDelimSpec);
  const std::string json = analysis::render_json(report);
  EXPECT_NE(json.find("\"clean\":true"), std::string::npos);
  EXPECT_NE(json.find("\"max_wire\":null"), std::string::npos);
  for (const analysis::Diagnostic& d : report.diagnostics) {
    EXPECT_NE(json.find("\"id\":\"" + d.id + "\""), std::string::npos);
  }
}

TEST(AnalysisReport, FuzzRunnerLintsTheProtocolAtConstruction) {
  Graph g1 = load(fuzztest::kNetDemoSpec);
  ObfuscationConfig cfg;
  cfg.seed = 11;
  cfg.per_node = 2;
  auto protocol = Framework::generate(g1, cfg);
  ASSERT_TRUE(protocol.ok()) << protocol.error().message;
  fuzz::FuzzRunner::Config run_cfg;
  run_cfg.whole_message = !stream_safe(protocol->wire_graph()).ok();
  fuzz::FuzzRunner runner(*protocol, run_cfg);
  EXPECT_TRUE(runner.lint().clean()) << ids_of(runner.lint());
  EXPECT_EQ(runner.lint().protocol, "NetDemo");
}

// --- clean sweeps -----------------------------------------------------------

constexpr std::uint64_t kSweepSeeds[] = {1, 2, 3, 4, 5};

/// Soundness of the static minimum on real wire: serializes a few random
/// messages of `p` and checks each is at least min_wire_size() long; on a
/// stream-safe compilation every prefix shorter than that minimum must
/// parse as Truncated, the "need more bytes" framers wait on.
void expect_sound_min_need(const std::string& label,
                           const ObfuscatedProtocol& p) {
  const std::size_t min = min_wire_size(p.wire_graph());
  const bool stream = stream_safe(p.wire_graph()).ok();
  Rng rng(0x5eed);
  Workspace ws;
  std::size_t serialized = 0;
  for (int attempt = 0; attempt < 16 && serialized < 4; ++attempt) {
    const InstPtr msg = fuzz::random_message(p.original(), rng);
    auto wire = p.serialize(*msg, rng.next_u64());
    if (!wire) continue;  // best-effort draw the spec constrains further
    ++serialized;
    ASSERT_GE(wire->size(), min) << label;
    if (!stream) continue;
    for (std::size_t keep = 0; keep < min; ++keep) {
      std::size_t consumed = 0;
      auto parsed = p.parse_prefix(BytesView(*wire).first(keep), &consumed, ws);
      ASSERT_FALSE(parsed.ok()) << label << ": prefix " << keep << " parsed";
      EXPECT_TRUE(parsed.error().truncated())
          << label << ": prefix " << keep << "/" << min
          << " reported malformed: " << parsed.error().message;
    }
  }
  EXPECT_GT(serialized, 0u) << label << ": no random message serialized";
}

/// Lints one compile and asserts the hard gate invariants: zero
/// error-severity findings and a sound static minimum.
void expect_clean(const std::string& label, const ObfuscatedProtocol& p) {
  const analysis::Report report = analysis::analyze(p);
  EXPECT_EQ(report.errors(), 0u)
      << label << ": " << analysis::render_text(report);
  expect_sound_min_need(label, p);
}

void sweep_spec(const std::string& label, std::string_view spec,
                int per_node) {
  Graph g1 = load(spec);
  const analysis::Report identity = analysis::analyze_graph(g1);
  EXPECT_EQ(identity.errors(), 0u)
      << label << " (identity): " << analysis::render_text(identity);
  ObfuscationConfig identity_cfg;
  identity_cfg.per_node = 0;
  auto identity_protocol = Framework::generate(g1, identity_cfg);
  ASSERT_TRUE(identity_protocol.ok())
      << label << ": " << identity_protocol.error().message;
  expect_sound_min_need(label + " (identity)", *identity_protocol);
  if (per_node <= 0) return;
  for (const std::uint64_t seed : kSweepSeeds) {
    ObfuscationConfig cfg;
    cfg.seed = seed;
    cfg.per_node = per_node;
    auto protocol = Framework::generate(g1, cfg);
    ASSERT_TRUE(protocol.ok()) << label << ": " << protocol.error().message;
    expect_clean(label + " seed " + std::to_string(seed), *protocol);
  }
}

TEST(AnalysisSweep, EverySpecFileLintsCleanAtIdentityAndUnderObfuscation) {
  const std::filesystem::path dir(PROTOOBF_SPECS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t swept = 0;
  for (const auto& it : std::filesystem::directory_iterator(dir)) {
    if (it.path().extension() != ".spec") continue;
    std::ifstream in(it.path());
    ASSERT_TRUE(in.good()) << it.path();
    std::stringstream text;
    text << in.rdbuf();
    sweep_spec(it.path().filename().string(), text.str(), /*per_node=*/2);
    ++swept;
  }
  EXPECT_GE(swept, 2u) << "specs/ directory unexpectedly thin";
}

TEST(AnalysisSweep, EveryFuzzRegistrySpecLintsClean) {
  for (const fuzztest::SpecEntry& entry : fuzztest::spec_registry()) {
    sweep_spec(std::string(entry.name), entry.spec, entry.per_node);
  }
}

TEST(AnalysisSweep, EveryProtocolLibrarySpecLintsClean) {
  sweep_spec("modbus-request", modbus::request_spec(), /*per_node=*/2);
  sweep_spec("modbus-response", modbus::response_spec(), /*per_node=*/2);
}

TEST(AnalysisSweep, EveryCrasherCorpusCompileLintsClean) {
  // Every (spec, seed, per_node) triple the corpus pins must still pass
  // the serve gate: a crasher documents a runtime bug we fixed, never a
  // spec the analyzer would reject.
  const std::filesystem::path dir(PROTOOBF_CORPUS_DIR);
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::set<std::string> done;
  for (const auto& it : std::filesystem::directory_iterator(dir)) {
    if (!it.is_regular_file()) continue;
    std::ifstream in(it.path());
    ASSERT_TRUE(in.good()) << it.path();
    std::string spec_name, line;
    std::uint64_t seed = 0;
    int per_node = 0;
    while (std::getline(in, line)) {
      const std::size_t colon = line.find(':');
      if (line.empty() || line[0] == '#' || colon == std::string::npos) {
        continue;
      }
      const std::string key = line.substr(0, colon);
      std::string value = line.substr(colon + 1);
      value.erase(0, value.find_first_not_of(" \t"));
      if (key == "spec") spec_name = value;
      if (key == "seed") seed = std::strtoull(value.c_str(), nullptr, 0);
      if (key == "per_node") {
        per_node = static_cast<int>(std::strtol(value.c_str(), nullptr, 0));
      }
    }
    const std::string label = spec_name + "/" + std::to_string(seed) + "/" +
                              std::to_string(per_node);
    if (!done.insert(label).second) continue;
    const fuzztest::SpecEntry* entry = fuzztest::find_spec(spec_name);
    ASSERT_NE(entry, nullptr)
        << it.path() << ": unknown spec '" << spec_name << "'";
    Graph g1 = load(entry->spec);
    ObfuscationConfig cfg;
    cfg.seed = seed;
    cfg.per_node = per_node;
    auto protocol = Framework::generate(g1, cfg);
    ASSERT_TRUE(protocol.ok()) << label << ": " << protocol.error().message;
    expect_clean(label, *protocol);
  }
  EXPECT_FALSE(done.empty()) << "empty corpus: " << dir;
}

}  // namespace
}  // namespace protoobf
