#include "stream/framer.hpp"

#include <algorithm>
#include <unordered_set>

#include "ast/ast.hpp"
#include "core/protoobf.hpp"
#include "obs/families.hpp"
#include "runtime/parse.hpp"

namespace protoobf {

namespace {

// Mirrors the per-framer ParseResume::Stats deltas of one decode() into the
// process-wide resume counters on every exit path. Deltas (not absolutes):
// each framer keeps its own stats, the registry aggregates all of them.
struct ResumeStatsMirror {
  const ParseResume& resume;
  ParseResume::Stats before;

  explicit ResumeStatsMirror(const ParseResume& r)
      : resume(r), before(r.stats()) {}
  ~ResumeStatsMirror() {
    const ParseResume::Stats after = resume.stats();
    obs::ResumeMetrics& m = obs::ResumeMetrics::get();
    if (after.attempts > before.attempts)
      m.attempts.add(after.attempts - before.attempts);
    if (after.resumed > before.resumed)
      m.resumed.add(after.resumed - before.resumed);
    if (after.suspensions > before.suspensions)
      m.suspensions.add(after.suspensions - before.suspensions);
    if (after.invalidations > before.invalidations)
      m.invalidations.add(after.invalidations - before.invalidations);
    if (after.scanned_bytes > before.scanned_bytes)
      m.scanned_bytes.add(after.scanned_bytes - before.scanned_bytes);
  }
};

}  // namespace

// --- LengthPrefixFramer -----------------------------------------------------

LengthPrefixFramer::LengthPrefixFramer(Config config)
    : config_(std::move(config)) {
  if (config_.width < 1) config_.width = 1;
  if (config_.width > 8) config_.width = 8;
}

Status LengthPrefixFramer::encode(BytesView payload, Bytes& out) {
  if (config_.max_frame_size > 0 && payload.size() > config_.max_frame_size) {
    return Unexpected("payload of " + std::to_string(payload.size()) +
                      " bytes exceeds max_frame_size");
  }
  if (config_.width < 8 &&
      payload.size() >= (std::uint64_t{1} << (8 * config_.width))) {
    return Unexpected("payload does not fit a " +
                      std::to_string(config_.width) + "-byte length prefix");
  }
  // Write the prefix byte-wise (no temporary buffer: this is the per-frame
  // hot path the arena design keeps allocation-free).
  out.clear();
  out.reserve(config_.width + payload.size());
  const std::uint64_t length = payload.size();
  for (std::size_t i = 0; i < config_.width; ++i) {
    const std::size_t shift = 8 * (config_.width - 1 - i);
    out.push_back(static_cast<Byte>((length >> shift) & 0xff));
  }
  append(out, payload);
  return Status::success();
}

FrameDecode LengthPrefixFramer::decode(BytesView buffer) {
  if (buffer.size() < config_.width) {
    return FrameDecode::need_more(config_.width - buffer.size());
  }
  std::uint64_t length = 0;
  for (std::size_t i = 0; i < config_.width; ++i) {
    const std::size_t shift = 8 * (config_.width - 1 - i);
    length |= static_cast<std::uint64_t>(buffer[i]) << shift;
  }
  if (config_.max_frame_size > 0 && length > config_.max_frame_size) {
    return FrameDecode::fail(
        Error{"frame length " + std::to_string(length) +
                  " exceeds max_frame_size " +
                  std::to_string(config_.max_frame_size),
              0});
  }
  // Compare against the *body* room so an 8-byte (or 32-bit size_t)
  // prefix of 0xff..ff cannot overflow a `width + length` sum into a
  // bogus in-bounds total.
  const std::size_t body_room = buffer.size() - config_.width;
  if (length > body_room) {
    return FrameDecode::need_more(
        static_cast<std::size_t>(length - body_room));
  }
  return FrameDecode::frame(
      buffer.subspan(config_.width, static_cast<std::size_t>(length)),
      config_.width + static_cast<std::size_t>(length));
}

// --- ObfuscatedFramer -------------------------------------------------------

namespace {

/// The payload terminal of a frame spec: the unique terminal that carries
/// user data — not a constant, and not a holder some boundary or presence
/// condition reads.
Expected<NodeId> detect_payload(const Graph& g) {
  std::unordered_set<NodeId> referenced;
  for (const NodeId id : g.dfs_order()) {
    const Node& n = g.node(id);
    if (n.ref != kNoNode) referenced.insert(n.ref);
    if (n.condition.ref != kNoNode) referenced.insert(n.condition.ref);
  }
  NodeId found = kNoNode;
  for (const NodeId id : g.dfs_order()) {
    const Node& n = g.node(id);
    if (n.type != NodeType::Terminal || n.has_const ||
        referenced.count(id) > 0) {
      continue;
    }
    if (found != kNoNode) {
      return Unexpected(
          "frame spec has several payload candidates ('" +
          g.node(found).name + "', '" + n.name +
          "'); name one with Config::payload_path");
    }
    found = id;
  }
  if (found == kNoNode) {
    return Unexpected("frame spec has no payload terminal");
  }
  return found;
}

}  // namespace

Expected<std::unique_ptr<ObfuscatedFramer>> ObfuscatedFramer::create(
    std::shared_ptr<const ObfuscatedProtocol> framing, Config config) {
  if (framing == nullptr) {
    return Unexpected("ObfuscatedFramer needs a compiled frame protocol");
  }
  if (Status s = stream_safe(framing->wire_graph()); !s) {
    return Unexpected("frame protocol is not stream-safe: " +
                      s.error().message);
  }
  const Graph& original = framing->original();
  InstPtr skeleton = make_skeleton(original, original.root());

  Inst* slot = nullptr;
  NodeId payload_node = kNoNode;
  if (config.payload_path.empty()) {
    auto detected = detect_payload(original);
    if (!detected) return Unexpected(detected.error());
    payload_node = *detected;
    slot = ast::find_schema(*skeleton, payload_node);
  } else {
    slot = ast::find_path(original, *skeleton, config.payload_path);
    if (slot != nullptr) payload_node = slot->schema;
  }
  if (slot == nullptr) {
    return Unexpected("payload terminal '" + config.payload_path +
                      "' not reachable in the frame skeleton");
  }
  if (original.node(payload_node).type != NodeType::Terminal) {
    return Unexpected("payload node '" +
                      original.node(payload_node).name +
                      "' is not a terminal");
  }
  // The floor all decode attempts wait for: no frame of this protocol can
  // occupy fewer wire bytes than the mandatory regions of its wire graph.
  const std::size_t min_need =
      std::max<std::size_t>(1, min_wire_size(framing->wire_graph()));
  return std::unique_ptr<ObfuscatedFramer>(
      new ObfuscatedFramer(std::move(framing), std::move(config),
                           std::move(skeleton), slot, payload_node,
                           min_need));
}

ObfuscatedFramer::ObfuscatedFramer(
    std::shared_ptr<const ObfuscatedProtocol> framing, Config config,
    InstPtr skeleton, Inst* payload_slot, NodeId payload_node,
    std::size_t min_need)
    : framing_(std::move(framing)),
      config_(std::move(config)),
      rng_(config_.frame_seed),
      skeleton_(std::move(skeleton)),
      payload_slot_(payload_slot),
      payload_node_(payload_node),
      min_need_(min_need) {}

Status ObfuscatedFramer::encode(BytesView payload, Bytes& out) {
  payload_slot_->value.assign(payload.begin(), payload.end());
  if (Status s = framing_->serialize_into(*skeleton_, rng_.next_u64(), out,
                                          ws_);
      !s) {
    return s;
  }
  if (config_.max_frame_size > 0 && out.size() > config_.max_frame_size) {
    return Unexpected("framed message of " + std::to_string(out.size()) +
                      " bytes exceeds max_frame_size");
  }
  return Status::success();
}

FrameDecode ObfuscatedFramer::decode(BytesView buffer) {
  // Below the static floor no prefix parse can succeed; report the exact
  // shortfall instead of attempting (and instead of the old 1-byte hint).
  if (buffer.size() < min_need_) {
    return FrameDecode::need_more(min_need_ - buffer.size());
  }
  ResumeStatsMirror mirror(resume_);
  // The prefix parse runs resumably: a Truncated attempt suspends into
  // resume_ (partial pooled tree, delimiter-scan cursors, scopes) and the
  // next decode() on the grown front continues from the truncation point.
  // parse_prefix uses ws_'s scope table and derive scratch for the
  // post-parse passes only, so an encode() interleaved with a suspended
  // decode never collides.
  std::size_t consumed = 0;
  auto tree = framing_->parse_prefix(buffer, &consumed, ws_, &resume_);
  if (!tree) {
    const Error& e = tree.error();
    if (e.truncated()) {
      // The guard must fire before the stream stalls waiting for a frame
      // it would reject anyway. Overflow-safe: a hostile wide length field
      // can make `need` approach 2^64, so never form `size + need`.
      if (config_.max_frame_size > 0 &&
          (buffer.size() >= config_.max_frame_size ||
           e.need > config_.max_frame_size - buffer.size())) {
        // The parse itself ended Truncated (and suspended), but the cap
        // turns it into a hard failure: drop the checkpoint so it cannot
        // be resumed against whatever front follows a caller's recovery.
        resume_.invalidate();
        return FrameDecode::fail(
            Error{"frame grows past max_frame_size " +
                      std::to_string(config_.max_frame_size),
                  e.offset});
      }
      return FrameDecode::need_more(e.need);
    }
    return FrameDecode::fail(e);
  }
  if (config_.max_frame_size > 0 && consumed > config_.max_frame_size) {
    return FrameDecode::fail(Error{"frame of " + std::to_string(consumed) +
                                       " bytes exceeds max_frame_size",
                                   0});
  }
  const Inst* payload = ast::find_schema(**tree, payload_node_);
  if (payload == nullptr) {
    return FrameDecode::fail(
        Error{"decoded frame carries no payload terminal", 0});
  }
  payload_copy_.assign(payload->value.begin(), payload->value.end());
  return FrameDecode::frame(payload_copy_, consumed);
}

}  // namespace protoobf
