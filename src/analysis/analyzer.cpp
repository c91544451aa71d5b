// Analyzer core: per-region wire facts + the diagnostic checks.
//
// Minimum sizes and stream violations come from the runtime's wire_facts()
// walk (runtime/parse.hpp), the one place that decides them. Everything
// else here is a single bottom-up pass over the wire graph (facts),
// followed by flat per-node checks and a few whole-graph walks (reference
// cycles, the static-offset fingerprint scan). The facts
// are deliberately conservative: byte domains over-approximate (a warning
// may fire on a value the application never actually sends), sizes and
// constant prefixes under-approximate (an Error is never based on a byte
// the wire might not contain).
#include "analysis/analyzer.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "runtime/parse.hpp"
#include "util/bytes.hpp"

namespace protoobf::analysis {

namespace {

constexpr std::uint64_t kSat = std::numeric_limits<std::uint64_t>::max();

// PO-W104: a counter whose worst-case claim exceeds this many bytes is
// flagged as a saturation-DoS surface (the fuzzer's 0xff skew arm).
constexpr std::uint64_t kCounterClaimLimit = std::uint64_t{1} << 20;

std::uint64_t sat_add(std::uint64_t a, std::uint64_t b) {
  return a > kSat - b ? kSat : a + b;
}

std::uint64_t sat_mul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > kSat / b ? kSat : a * b;
}

/// Set of byte values, with a `top` shortcut for "any byte".
struct ByteSet {
  std::array<std::uint64_t, 4> bits{};
  bool top = false;

  void add(Byte b) { bits[b >> 6] |= std::uint64_t{1} << (b & 63); }
  void add_range(Byte lo, Byte hi) {
    for (unsigned b = lo; b <= hi; ++b) add(static_cast<Byte>(b));
  }
  void add_all() { top = true; }
  void merge(const ByteSet& other) {
    top = top || other.top;
    for (std::size_t i = 0; i < bits.size(); ++i) bits[i] |= other.bits[i];
  }
  bool contains(Byte b) const {
    return top || (bits[b >> 6] >> (b & 63)) & 1;
  }
  bool empty() const {
    if (top) return false;
    for (const std::uint64_t w : bits) {
      if (w != 0) return false;
    }
    return true;
  }
};

/// Byte-wise forward combination of one value byte with one key byte, in
/// the serialize direction (transform/exec.cpp applies add/sub/xor_key_in).
Byte combine(TransformKind kind, Byte value, Byte key) {
  switch (kind) {
    case TransformKind::ConstAdd:
      return static_cast<Byte>(value + key);
    case TransformKind::ConstSub:
      return static_cast<Byte>(value - key);
    default:
      return static_cast<Byte>(value ^ key);
  }
}

/// Images of a byte set under a Const* key. The first byte of a region
/// always meets key[0]; interior bytes meet every key byte (the key cycles
/// from the region start, and we do not track positions).
ByteSet map_set(const ByteSet& s, TransformKind kind, BytesView key,
                bool first_byte) {
  if (s.top || key.empty()) return s;
  ByteSet out;
  for (unsigned b = 0; b < 256; ++b) {
    if (!s.contains(static_cast<Byte>(b))) continue;
    if (first_byte) {
      out.add(combine(kind, static_cast<Byte>(b), key[0]));
    } else {
      for (const Byte k : key) out.add(combine(kind, static_cast<Byte>(b), k));
    }
  }
  return out;
}

/// Per-region wire facts, computed bottom-up. Minimum sizes are not here:
/// they come from the runtime's wire_facts() walk (runtime/parse.hpp).
struct Facts {
  std::optional<std::uint64_t> max_size;  // nullopt = unbounded
  NodeId unbounded_by = kNoNode;          // culprit when max_size is nullopt
  ByteSet first;  // possible first bytes of a non-empty region
  ByteSet all;    // every byte that can appear in the region
  Bytes const_prefix;  // guaranteed leading wire bytes
  Bytes const_bytes;   // full region bytes when `constant`
  bool constant = false;
  bool static_size = false;
};

struct FingerprintSpan {
  NodeId node = kNoNode;
  std::size_t offset = 0;
  std::size_t length = 0;
};

class Analyzer {
 public:
  Analyzer(const Graph& wire, const Journal& journal,
           const HolderTable& holders)
      : wire_(wire), journal_(journal), holders_(holders) {}

  Report run() {
    report_.protocol = wire_.protocol_name();
    if (wire_.root() == kNoNode) {
      report_.is_stream_safe = false;
      return std::move(report_);
    }
    classify_journal();
    wire_facts_ = wire_facts(wire_);
    facts_.resize(wire_.arena_size());
    compute(wire_.root());

    const Facts& root = facts_[wire_.root()];
    report_.min_need = wire_facts_.min_size[wire_.root()];
    report_.max_wire = root.max_size;

    check_stream_safety();
    check_frame_bounds(root);
    for (const NodeId id : wire_.dfs_order()) check_node(id);
    check_reference_cycles();
    check_holder_chains();
    check_random_under_scan();
    check_fingerprint();

    std::stable_sort(report_.diagnostics.begin(), report_.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                       return static_cast<int>(a.severity) >
                              static_cast<int>(b.severity);
                     });
    return std::move(report_);
  }

 private:
  // --- diagnostics ---------------------------------------------------------

  void emit(const char* id, const char* name, Severity severity, NodeId node,
            std::string message, std::string hint) {
    Diagnostic d;
    d.id = id;
    d.name = name;
    d.severity = severity;
    d.node = node;
    if (node != kNoNode && node < wire_.arena_size()) {
      d.path = wire_.path_of(node);
    }
    d.message = std::move(message);
    d.hint = std::move(hint);
    report_.diagnostics.push_back(std::move(d));
  }

  // --- journal classification ----------------------------------------------

  void classify_journal() {
    random_.assign(wire_.arena_size(), 0);
    const_keys_.assign(wire_.arena_size(), {});
    const auto mark_random = [&](NodeId id) {
      if (id != kNoNode && id < random_.size()) random_[id] = 1;
    };
    for (const AppliedTransform& t : journal_) {
      switch (t.kind) {
        case TransformKind::SplitAdd:
        case TransformKind::SplitSub:
        case TransformKind::SplitXor:
          mark_random(t.created_a);
          mark_random(t.created_b);
          break;
        case TransformKind::PadInsert:
          mark_random(t.created_a);
          break;
        case TransformKind::ConstAdd:
        case TransformKind::ConstSub:
        case TransformKind::ConstXor:
          if (t.target != kNoNode && t.target < const_keys_.size() &&
              !t.key.empty()) {
            const_keys_[t.target].push_back(&t);
          }
          break;
        default:
          break;
      }
    }
  }

  bool is_random(NodeId id) const {
    return id < random_.size() && random_[id] != 0;
  }

  // --- holder value bounds -------------------------------------------------

  /// Largest logical value the holder referenced by `ref` can carry, via
  /// its origin terminal's width and encoding; nullopt when unbounded or
  /// unresolvable. Counter refs may chain through a Tabular (RepSplit).
  std::optional<std::uint64_t> holder_max_value(NodeId ref, int depth = 0) {
    if (depth > 8 || ref == kNoNode || ref >= wire_.arena_size()) {
      return std::nullopt;
    }
    NodeId origin = ref;
    if (const HolderInfo* h = holders_.find_by_top(ref)) origin = h->origin;
    if (origin == kNoNode || origin >= wire_.arena_size()) return std::nullopt;
    const Node& o = wire_.node(origin);
    if (o.type == NodeType::Tabular) {
      return holder_max_value(o.ref, depth + 1);
    }
    if (o.type != NodeType::Terminal) return std::nullopt;
    if (o.has_const && !o.const_value.empty()) {
      if (o.encoding == Encoding::AsciiDec) {
        return ascii_dec_decode(o.const_value);
      }
      if (o.const_value.size() > 8) return kSat;
      return be_decode(o.const_value);
    }
    if (o.boundary != BoundaryKind::Fixed) return std::nullopt;
    const std::size_t width = o.fixed_size;
    if (o.encoding == Encoding::AsciiDec) {
      std::uint64_t bound = 1;
      for (std::size_t i = 0; i < width; ++i) bound = sat_mul(bound, 10);
      return bound == kSat ? kSat : bound - 1;
    }
    if (width >= 8) return kSat;
    return (std::uint64_t{1} << (8 * width)) - 1;
  }

  // --- facts ---------------------------------------------------------------

  void compute(NodeId id) {
    const Node& n = wire_.node(id);
    for (const NodeId child : n.children) compute(child);
    Facts f;
    switch (n.type) {
      case NodeType::Terminal:
        terminal_facts(id, n, f);
        break;
      case NodeType::Sequence:
        sequence_facts(n, f);
        break;
      case NodeType::Optional: {
        const Facts& c = facts_[n.children[0]];
        f.max_size = c.max_size;
        f.unbounded_by = c.unbounded_by;
        f.first = c.first;
        f.all = c.all;
        break;
      }
      case NodeType::Repetition: {
        const Facts& c = facts_[n.children[0]];
        f.max_size = std::nullopt;  // unbounded element count
        f.unbounded_by = id;
        f.first = c.first;
        f.all = c.all;
        break;
      }
      case NodeType::Tabular: {
        const Facts& c = facts_[n.children[0]];
        const auto count = holder_max_value(n.ref);
        if (count && c.max_size) {
          f.max_size = sat_mul(*count, *c.max_size);
        } else {
          f.unbounded_by = c.max_size ? id : c.unbounded_by;
        }
        f.first = c.first;
        f.all = c.all;
        break;
      }
    }
    wrap_region(id, n, f);
    facts_[id] = std::move(f);
  }

  void terminal_facts(NodeId id, const Node& n, Facts& f) {
    switch (n.boundary) {
      case BoundaryKind::Fixed:
        f.max_size = n.fixed_size;
        f.static_size = true;
        break;
      case BoundaryKind::Length:
        f.max_size = holder_max_value(n.ref);
        if (!f.max_size) f.unbounded_by = id;
        break;
      case BoundaryKind::Delimited:
      case BoundaryKind::End:
      case BoundaryKind::Half:
      default:
        f.unbounded_by = id;
        break;
    }
    if (n.has_const && !n.const_value.empty()) {
      f.static_size = true;
      f.max_size = n.const_value.size();
      Bytes bytes = n.const_value;
      for (const AppliedTransform* t : const_keys_[id]) {
        switch (t->kind) {
          case TransformKind::ConstAdd: add_key_in(bytes, t->key); break;
          case TransformKind::ConstSub: sub_key_in(bytes, t->key); break;
          default: xor_key_in(bytes, t->key); break;
        }
      }
      f.first.add(bytes[0]);
      for (const Byte b : bytes) f.all.add(b);
      f.const_prefix = bytes;
      f.const_bytes = std::move(bytes);
      f.constant = true;
      return;
    }
    // Value domain of a non-constant terminal: split halves and pads carry
    // per-message random bytes; length/count holders carry an encoded
    // number; anything else is application data.
    ByteSet domain;
    if (is_random(id)) {
      domain.add_all();
    } else if (n.encoding == Encoding::AsciiDec) {
      const bool holder =
          wire_.is_length_target(id) || wire_.is_counter_target(id);
      if (holder) {
        domain.add_range('0', '9');
      } else {
        domain.add_range(0x20, 0x7e);  // printable application text
      }
    } else {
      domain.add_all();
    }
    f.first = domain;
    f.all = domain;
    for (const AppliedTransform* t : const_keys_[id]) {
      f.first = map_set(f.first, t->kind, t->key, /*first_byte=*/true);
      f.all = map_set(f.all, t->kind, t->key, /*first_byte=*/false);
    }
  }

  void sequence_facts(const Node& n, Facts& f) {
    bool prefix_open = true;
    bool first_open = true;
    bool all_static = true;
    bool all_const = true;
    std::optional<std::uint64_t> max = 0;
    NodeId culprit = kNoNode;
    for (const NodeId child : n.children) {
      const Facts& c = facts_[child];
      if (max && c.max_size) {
        max = sat_add(*max, *c.max_size);
      } else if (max) {
        culprit = c.unbounded_by != kNoNode ? c.unbounded_by : child;
        max = std::nullopt;
      }
      if (first_open) {
        f.first.merge(c.first);
        if (wire_facts_.min_size[child] > 0) first_open = false;
      }
      f.all.merge(c.all);
      if (prefix_open) {
        append(f.const_prefix, c.const_prefix);
        if (!c.constant) prefix_open = false;
      }
      all_static = all_static && c.static_size;
      all_const = all_const && c.constant;
    }
    f.max_size = max;
    f.unbounded_by = culprit;
    f.static_size = all_static;
    if (all_const) {
      f.constant = true;
      f.const_bytes.clear();
      for (const NodeId child : n.children) {
        append(f.const_bytes, facts_[child].const_bytes);
      }
    }
  }

  /// Region-boundary adjustments shared by every node type: the size the
  /// region itself imposes, the delimiter's bytes, mirroring.
  void wrap_region(NodeId id, const Node& n, Facts& f) {
    // max: an explicit region bound overrides (and a Length region is also
    // capped by what its holder can express).
    switch (n.boundary) {
      case BoundaryKind::Fixed:
        f.max_size = n.fixed_size;
        f.unbounded_by = kNoNode;
        f.static_size = true;
        break;
      case BoundaryKind::Length: {
        const auto bound = holder_max_value(n.ref);
        if (bound && f.max_size) {
          f.max_size = std::min(*bound, *f.max_size);
        } else if (bound) {
          f.max_size = bound;
          f.unbounded_by = kNoNode;
        } else if (!f.max_size && f.unbounded_by == kNoNode) {
          f.unbounded_by = id;
        }
        f.static_size = false;
        break;
      }
      case BoundaryKind::Delimited:
        if (f.max_size) f.max_size = sat_add(*f.max_size, n.delimiter.size());
        break;
      default:
        break;
    }
    if (n.boundary == BoundaryKind::Delimited && !n.delimiter.empty()) {
      // An empty content region starts with its own delimiter (or, for a
      // stop-marker repetition, an empty repetition starts with the marker).
      if (wire_facts_.content_min[id] == 0) f.first.add(n.delimiter[0]);
      for (const Byte b : n.delimiter) f.all.add(b);
      if (f.constant) {
        append(f.const_bytes, n.delimiter);
        f.const_prefix = f.const_bytes;
      }
    }
    if (n.mirrored) {
      if (f.constant) {
        f.const_bytes = reversed(f.const_bytes);
        f.const_prefix = f.const_bytes;
        f.first = ByteSet{};
        if (!f.const_bytes.empty()) f.first.add(f.const_bytes[0]);
      } else {
        // The region's last byte becomes its first; we only know the
        // interior domain.
        f.const_prefix.clear();
        f.first = f.all;
      }
    }
    if (f.constant && f.max_size) f.static_size = true;
  }

  // --- stream / datagram safety (PO-W106, PO-N201) -------------------------

  /// One located PO-W106 per violation the shared walk reports.
  void check_stream_safety() {
    for (const WireFacts::StreamViolation& v : wire_facts_.stream_violations) {
      emit("PO-W106", "not-stream-safe", Severity::Warning, v.node,
           "node '" + wire_.node(v.node).name + "' " + v.reason +
               "; prefix parsing over a byte stream is rejected",
           "bound the region with fixed/length, or serve this protocol in "
           "whole-message (datagram) mode");
    }
    report_.is_stream_safe = wire_facts_.stream_violations.empty();
  }

  void check_frame_bounds(const Facts& root) {
    if (!root.max_size) {
      const NodeId culprit =
          root.unbounded_by != kNoNode ? root.unbounded_by : wire_.root();
      emit("PO-W103", "unbounded-frame", Severity::Warning, culprit,
           "no static bound on the wire size: '" + wire_.path_of(culprit) +
               "' can grow without limit, so oversized frames only fail at "
               "the reassembly cap (max_frame_size)",
           "bound the variable region with a fixed-width length field, or "
           "cap the repetition with a counter");
    }
    report_.is_datagram_safe =
        root.max_size && *root.max_size <= kDatagramMtu;
    if (!report_.is_datagram_safe) {
      const NodeId at =
          root.max_size ? wire_.root()
                        : (root.unbounded_by != kNoNode ? root.unbounded_by
                                                        : wire_.root());
      std::string why =
          root.max_size
              ? "worst-case wire size " + std::to_string(*root.max_size) +
                    " exceeds the datagram MTU (" +
                    std::to_string(kDatagramMtu) + ")"
              : "the wire size is statically unbounded";
      emit("PO-N201", "not-datagram-safe", Severity::Note, at,
           std::move(why) + "; one-message-per-datagram transport cannot be "
                            "guaranteed",
           "keep every length holder narrow enough that the worst-case "
           "message fits one datagram");
    }
  }

  // --- per-node checks -----------------------------------------------------

  void check_node(NodeId id) {
    const Node& n = wire_.node(id);
    const Facts& f = facts_[id];
    const std::size_t content_min = wire_facts_.content_min[id];

    // PO-E001: a fixed region must be able to hold its mandatory content
    // (the emitter rejects any instance, so no message of this graph
    // serializes at all).
    if (n.boundary == BoundaryKind::Fixed && content_min > n.fixed_size) {
      emit("PO-E001", "fixed-region-overflow", Severity::Error, id,
           "mandatory content needs at least " +
               std::to_string(content_min) + " bytes but the fixed region "
               "holds " + std::to_string(n.fixed_size),
           "widen the fixed region or shrink the mandatory content");
    }

    // PO-E002: a length-bounded region whose mandatory content exceeds the
    // largest value its holder can encode can never round-trip.
    if (n.boundary == BoundaryKind::Length) {
      const auto bound = holder_max_value(n.ref);
      if (bound && content_min > *bound) {
        emit("PO-E002", "length-region-overflow", Severity::Error, id,
             "mandatory content needs at least " +
                 std::to_string(content_min) +
                 " bytes but the length holder can express at most " +
                 std::to_string(*bound),
             "widen the length holder or shrink the region's mandatory "
             "content");
      }
    }

    if (n.type == NodeType::Repetition) check_repetition(id, n);
    if (n.type != NodeType::Repetition &&
        n.boundary == BoundaryKind::Delimited) {
      check_scanned_region(id, n, f);
    }

    // PO-W104: counter saturation — a hostile count field skewed to 0xff
    // (or '9's) claims this many elements; each element costs at least one
    // parser iteration and `element_min` wire bytes.
    if (n.type == NodeType::Tabular) {
      const auto count = holder_max_value(n.ref);
      const std::uint64_t per =
          std::max<std::uint64_t>(wire_facts_.min_size[n.children[0]], 1);
      if (!count) {
        emit("PO-W104", "counter-saturation", Severity::Warning, id,
             "the element count claim is statically unbounded; a hostile "
             "peer controls the parse loop",
             "give the counter a fixed-width holder");
      } else if (const std::uint64_t claim = sat_mul(*count, per);
                 claim > kCounterClaimLimit) {
        emit("PO-W104", "counter-saturation", Severity::Warning, id,
             "a saturated counter claims " + std::to_string(*count) +
                 " elements (worst case " + std::to_string(claim) +
                 " bytes/iterations, limit " +
                 std::to_string(kCounterClaimLimit) + ")",
             "narrow the counter field or bound the table inside a "
             "length-delimited region");
      }
    }
  }

  void check_repetition(NodeId id, const Node& n) {
    const NodeId elem_id = n.children[0];
    const Facts& elem = facts_[elem_id];

    // PO-W107: an element that can consume zero bytes turns the repetition
    // into the runtime's "consumed no input" Malformed — reachable by a
    // hostile peer, invisible in happy-path tests.
    if (wire_facts_.min_size[elem_id] == 0) {
      emit("PO-W107", "possibly-empty-element", Severity::Warning, elem_id,
           "repetition element '" + wire_.node(elem_id).name +
               "' can occupy zero wire bytes; the parser rejects such an "
               "element as malformed to guarantee progress",
           "give the element at least one mandatory byte (fixed field or "
           "delimiter)");
    }

    if (n.boundary != BoundaryKind::Delimited || n.delimiter.empty()) return;

    // PO-E003: an element whose guaranteed constant prefix *is* the stop
    // marker can never be entered — the parser always sees the marker
    // first, so any message with elements fails to round-trip.
    if (starts_with(elem.const_prefix, n.delimiter)) {
      emit("PO-E003", "stop-marker-shadowed", Severity::Error, id,
           "every element starts with the stop marker (" +
               to_hex(n.delimiter) + "); the repetition always decodes as "
               "empty and elements are unreachable",
           "change the stop marker or the element's leading constant");
      return;
    }

    // PO-W101: the generalized undecided-stop-marker property — if the
    // marker's first byte can also begin an element, a decoder at the
    // repetition boundary cannot decide from one byte which way to go.
    // (The resumable parser handles this soundly but pays suspensions for
    // it, and a truncation right at the overlap is indistinguishable from
    // a malformed element.)
    if (elem.first.contains(n.delimiter[0])) {
      emit("PO-W101", "ambiguous-stop-marker", Severity::Warning, id,
           "stop marker first byte 0x" + to_hex(BytesView(&n.delimiter[0], 1)) +
               " overlaps the element's possible first bytes; decode is "
               "ambiguous at every element boundary",
           "pick a stop marker whose first byte no element can start with, "
           "or bound the repetition by length/count");
    }
  }

  void check_scanned_region(NodeId id, const Node& n, const Facts& f) {
    if (n.delimiter.empty() || f.constant) return;
    // The parser delimits this region by scanning for the FIRST delimiter
    // occurrence; content that can contain the delimiter's first byte may
    // cut the region short. (`f.all` already includes the delimiter's own
    // bytes, so the content domain is re-derived here.)
    ByteSet content;
    if (n.type == NodeType::Terminal) {
      content = terminal_content_domain(id, n);
    } else {
      for (const NodeId child : n.children) content.merge(facts_[child].all);
    }
    if (!content.contains(n.delimiter[0])) return;
    const bool app_text_contract = n.type == NodeType::Terminal &&
                                   n.encoding == Encoding::AsciiDec &&
                                   !n.has_const;
    if (app_text_contract) {
      // PO-N202: a printable-text field whose delimiter is itself
      // printable relies on the application never emitting it — the
      // HTTP-header contract. Worth recording, not a defect.
      emit("PO-N202", "delimited-terminal-collision", Severity::Note, id,
           "text field '" + n.name + "' is delimited by printable bytes (" +
               to_hex(n.delimiter) + ") that its values could contain; "
               "correctness relies on the application escaping them",
           "document the escaping contract, or use a length boundary");
    } else {
      emit("PO-W102", "delimiter-in-scan", Severity::Warning, id,
           "region '" + n.name + "' is delimited by " + to_hex(n.delimiter) +
               " but its content bytes can contain the delimiter's first "
               "byte; the scan can cut the region short",
           "use a length boundary, or a delimiter outside the content's "
           "byte domain");
    }
  }

  /// Value domain of a terminal's own content (no delimiter, no keys) —
  /// used to separate content bytes from region bytes in scan checks.
  ByteSet terminal_content_domain(NodeId id, const Node& n) {
    ByteSet domain;
    if (is_random(id)) {
      domain.add_all();
    } else if (n.has_const && !n.const_value.empty()) {
      for (const Byte b : n.const_value) domain.add(b);
    } else if (n.encoding == Encoding::AsciiDec) {
      const bool holder =
          wire_.is_length_target(id) || wire_.is_counter_target(id);
      if (holder) {
        domain.add_range('0', '9');
      } else {
        domain.add_range(0x20, 0x7e);
      }
    } else {
      domain.add_all();
    }
    for (const AppliedTransform* t : const_keys_[id]) {
      domain = map_set(domain, t->kind, t->key, /*first_byte=*/false);
    }
    return domain;
  }

  // --- whole-graph integrity checks ----------------------------------------

  /// PO-E005: cycles among Length/Counter/Condition references. Validated
  /// graphs cannot contain one (the target must strictly precede the
  /// dependant in parse order), so a cycle means the artifact is corrupt
  /// and the holder fixpoint would diverge.
  void check_reference_cycles() {
    const auto order = wire_.dfs_order();
    std::vector<std::uint8_t> color(wire_.arena_size(), 0);
    for (const NodeId start : order) {
      if (color[start] != 0) continue;
      if (cycle_dfs(start, color)) return;  // one report is enough
    }
  }

  NodeId ref_edge(NodeId id) const {
    const Node& n = wire_.node(id);
    if (n.boundary == BoundaryKind::Length ||
        n.boundary == BoundaryKind::Counter) {
      return n.ref;
    }
    if (n.type == NodeType::Optional &&
        n.condition.kind != Condition::Kind::Always) {
      return n.condition.ref;
    }
    return kNoNode;
  }

  bool cycle_dfs(NodeId id, std::vector<std::uint8_t>& color) {
    color[id] = 1;  // on stack
    const NodeId next = ref_edge(id);
    if (next != kNoNode && next < wire_.arena_size()) {
      if (color[next] == 1) {
        emit("PO-E005", "holder-dependency-cycle", Severity::Error, id,
             "reference cycle: '" + wire_.node(id).name +
                 "' depends on '" + wire_.node(next).name +
                 "' which transitively depends back on it; the holder "
                 "fixpoint cannot converge",
             "this artifact is corrupt — no validated graph contains a "
             "reference cycle; recompile from the specification");
        color[id] = 2;
        return true;
      }
      if (color[next] == 0 && cycle_dfs(next, color)) {
        color[id] = 2;
        return true;
      }
    }
    color[id] = 2;
    return false;
  }

  /// PO-E004: holder replay chains must index the journal in strictly
  /// increasing order — anything else cannot be replayed and the
  /// serializer's holder fix-up would diverge from the parser's inverse.
  void check_holder_chains() {
    for (const HolderInfo& h : holders_.holders) {
      std::size_t prev = 0;
      bool have_prev = false;
      for (const std::size_t idx : h.chain) {
        if (idx >= journal_.size()) {
          emit("PO-E004", "holder-chain-corrupt", Severity::Error, h.top,
               "holder replay chain references journal entry " +
                   std::to_string(idx) + " but the journal has " +
                   std::to_string(journal_.size()) + " entries",
               "this artifact is corrupt; recompile from the specification");
          break;
        }
        if (have_prev && idx <= prev) {
          emit("PO-E004", "holder-chain-corrupt", Severity::Error, h.top,
               "holder replay chain is not strictly increasing (" +
                   std::to_string(prev) + " then " + std::to_string(idx) +
                   "); replaying it would not reproduce serialization order",
               "this artifact is corrupt; recompile from the specification");
          break;
        }
        prev = idx;
        have_prev = true;
      }
    }
  }

  /// PO-E006: per-message random bytes (split halves, pads) under a
  /// delimiter-scanned region could forge or destroy the delimiter — the
  /// engine's placement constraint, re-proved on the artifact.
  void check_random_under_scan() {
    for (const NodeId id : wire_.dfs_order()) {
      if (!is_random(id)) continue;
      for (const NodeId a : wire_.ancestors(id)) {
        if (wire_.node(a).boundary != BoundaryKind::Delimited) continue;
        emit("PO-E006", "random-bytes-under-scan", Severity::Error, id,
             "per-message random bytes of '" + wire_.node(id).name +
                 "' sit inside the delimiter-scanned region '" +
                 wire_.node(a).name + "'; a random draw can collide with "
                 "the delimiter and corrupt the scan",
             "this artifact violates the engine's placement constraint; "
             "recompile from the specification");
        break;
      }
    }
  }

  // --- seed-invariance fingerprint (PO-W105 / PO-N203) ---------------------

  void check_fingerprint() {
    spans_.clear();
    fingerprint_walk(wire_.root(), 0);
    std::size_t total = 0;
    for (const FingerprintSpan& s : spans_) total += s.length;
    if (total == 0) return;
    const FingerprintSpan& head = spans_.front();
    std::string message =
        std::to_string(total) + " wire byte(s) at fixed offsets are "
        "identical in every message (first: '" + wire_.path_of(head.node) +
        "' at offset " + std::to_string(head.offset) + ", " +
        std::to_string(head.length) + " byte(s)); a DPI signature can "
        "anchor on them";
    if (journal_.empty()) {
      emit("PO-N203", "static-fingerprint", Severity::Note, head.node,
           std::move(message),
           "expected for an identity compilation; obfuscate (per_node >= 1) "
           "before serving past DPI");
    } else {
      emit("PO-W105", "seed-invariant-bytes", Severity::Warning, head.node,
           "obfuscation left " + std::move(message),
           "raise the obfuscation depth or enable Split/Pad transformations "
           "so these bytes stop surviving at fixed offsets");
    }
  }

  /// Emits-order scan tracking the wire offset while it stays statically
  /// known; records every constant region found at a known offset. Returns
  /// the offset after the node, or nullopt once tracking is lost.
  std::optional<std::size_t> fingerprint_walk(NodeId id, std::size_t offset) {
    const Node& n = wire_.node(id);
    const Facts& f = facts_[id];
    if (f.constant && !f.const_bytes.empty()) {
      spans_.push_back({id, offset, f.const_bytes.size()});
      return offset + f.const_bytes.size();
    }
    if (n.type == NodeType::Sequence && !n.mirrored) {
      std::size_t off = offset;
      bool lost = false;
      for (const NodeId child : n.children) {
        if (lost) break;
        if (const auto next = fingerprint_walk(child, off)) {
          off = *next;
        } else {
          lost = true;
        }
      }
      if (n.boundary == BoundaryKind::Fixed) {
        // The region occupies exactly fixed_size bytes no matter what
        // happened inside: tracking re-anchors after it.
        return offset + n.fixed_size;
      }
      if (lost) return std::nullopt;
      if (n.boundary == BoundaryKind::Delimited && !n.delimiter.empty()) {
        spans_.push_back({id, off, n.delimiter.size()});
        off += n.delimiter.size();
      }
      return off;
    }
    if (n.boundary == BoundaryKind::Fixed) return offset + n.fixed_size;
    if (f.static_size) return offset + wire_facts_.min_size[id];
    return std::nullopt;
  }

  const Graph& wire_;
  const Journal& journal_;
  const HolderTable& holders_;
  Report report_;
  WireFacts wire_facts_;  // minimum sizes and stream violations
  std::vector<Facts> facts_;
  std::vector<std::uint8_t> random_;
  std::vector<std::vector<const AppliedTransform*>> const_keys_;
  std::vector<FingerprintSpan> spans_;
};

}  // namespace

const char* to_string(Severity severity) {
  switch (severity) {
    case Severity::Note: return "note";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "unknown";
}

std::size_t Report::errors() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::Error;
                    }));
}

std::size_t Report::warnings() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::Warning;
                    }));
}

std::size_t Report::notes() const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic& d) {
                      return d.severity == Severity::Note;
                    }));
}

const Diagnostic* Report::find(std::string_view id) const {
  for (const Diagnostic& d : diagnostics) {
    if (d.id == id) return &d;
  }
  return nullptr;
}

Report analyze_parts(const Graph& wire, const Journal& journal,
                     const HolderTable& holders) {
  return Analyzer(wire, journal, holders).run();
}

Report analyze(const ObfuscatedProtocol& protocol) {
  return analyze_parts(protocol.wire_graph(), protocol.journal(),
                       protocol.holders());
}

Report analyze_graph(const Graph& g1) {
  const Journal empty;
  const HolderTable holders = build_holder_table(g1, empty);
  return analyze_parts(g1, empty, holders);
}

bool datagram_safe(const Graph& wire, std::size_t mtu) {
  const Journal empty;
  const HolderTable holders;
  const auto max_wire = analyze_parts(wire, empty, holders).max_wire;
  return max_wire && *max_wire <= mtu;
}

}  // namespace protoobf::analysis
