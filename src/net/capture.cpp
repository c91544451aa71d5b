#include "net/capture.hpp"

namespace protoobf::net {

void TrafficCapture::record_out(BytesView frame) {
  std::lock_guard<std::mutex> lock(mu_);
  out_.emplace_back(frame.begin(), frame.end());
}

void TrafficCapture::record_in(BytesView chunk) {
  std::lock_guard<std::mutex> lock(mu_);
  in_.emplace_back(chunk.begin(), chunk.end());
}

Bytes TrafficCapture::in_stream() const {
  std::lock_guard<std::mutex> lock(mu_);
  Bytes stream;
  for (const Bytes& chunk : in_) {
    stream.insert(stream.end(), chunk.begin(), chunk.end());
  }
  return stream;
}

Expected<std::vector<Bytes>> TrafficCapture::deframe_in(Framer& framer) const {
  const Bytes stream = in_stream();
  std::vector<Bytes> payloads;
  std::size_t off = 0;
  while (off < stream.size()) {
    FrameDecode d = framer.decode(BytesView(stream).subspan(off));
    switch (d.kind) {
      case FrameDecode::Kind::Frame:
        payloads.emplace_back(d.payload.begin(), d.payload.end());
        off += d.consumed;
        break;
      case FrameDecode::Kind::NeedMore:
        return Unexpected::truncated(
            "captured stream ends mid-frame at offset " + std::to_string(off),
            off, d.need);
      case FrameDecode::Kind::Error:
        return Unexpected(d.error);
    }
  }
  return payloads;
}

std::size_t TrafficCapture::bytes_out() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const Bytes& f : out_) total += f.size();
  return total;
}

std::size_t TrafficCapture::bytes_in() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t total = 0;
  for (const Bytes& c : in_) total += c.size();
  return total;
}

void TrafficCapture::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  out_.clear();
  in_.clear();
}

}  // namespace protoobf::net
