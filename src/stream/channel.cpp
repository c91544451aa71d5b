#include "stream/channel.hpp"

namespace protoobf {

Expected<BytesView> Channel::send(const Inst& message, std::uint64_t msg_seed) {
  auto wire = session_.serialize(message, msg_seed);
  if (!wire) return Unexpected(wire.error());
  Bytes& frame = session_.workspace().frame();
  if (Status s = framer_.encode(*wire, frame); !s) {
    return Unexpected(s.error());
  }
  return BytesView(frame);
}

void Channel::on_bytes(BytesView chunk) { reader_.feed(chunk); }

std::optional<Expected<InstPtr>> Channel::receive() {
  auto payload = reader_.next_frame();
  if (!payload.has_value()) return std::nullopt;
  auto message = session_.parse(*payload);
  // The frame is consumed: the parse copied what it needed into the pooled
  // tree, so the reader may compact/reallocate its buffer again.
  reader_.release_payloads();
  return message;
}

std::vector<Expected<InstPtr>> Channel::drain_batch() {
  // Collect every complete frame first, then parse them in one sharded
  // batch. Payloads from a buffer-aliasing framer stay valid throughout
  // (next_frame() never moves the buffer); scratch-backed payloads are
  // copied into the reusable stash before the next decode overwrites them.
  const bool zero_copy = framer_.payload_aliases_buffer();
  std::vector<BytesView> frames;
  std::size_t stashed = 0;
  while (auto payload = reader_.next_frame()) {
    if (zero_copy) {
      frames.push_back(*payload);
    } else {
      if (stashed == stash_.size()) stash_.emplace_back();
      Bytes& copy = stash_[stashed++];
      copy.assign(payload->begin(), payload->end());
      frames.push_back(BytesView(copy));
    }
  }
  if (frames.empty()) {
    reader_.release_payloads();
    return {};
  }
  auto parsed = session_.parse_batch(frames);
  reader_.release_payloads();
  return parsed;
}

}  // namespace protoobf
