// Wire tap for resilience measurement.
//
// The pre-instruments (src/pre) grade obfuscation quality, but until now
// they only ever saw bytes produced in-process by a serializer — never
// bytes that crossed a real socket, with the kernel deciding chunk sizes
// and coalescing frames. A TrafficCapture records exactly what a
// Connection puts on and takes off the wire:
//
//   * record_out: one entry per framed message, as handed to the kernel —
//     frame boundaries preserved, because the sender knows them;
//   * record_in: one entry per read() slice, exactly as the kernel
//     delivered it — boundaries NOT preserved, because an observer on the
//     wire does not get them either.
//
// deframe() recovers message payloads from the inbound stream the honest
// way: by running a fresh Framer over the concatenated capture, the same
// reassembly any endpoint would do. What the DPI instruments are fed is
// therefore real loopback traffic, not a synthetic approximation.
//
// Thread-safe: a capture is typically written by an event-loop thread and
// read by the test thread after the loop stops.
#pragma once

#include <mutex>
#include <vector>

#include "stream/framer.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace protoobf::net {

class TrafficCapture {
 public:
  /// One framed message, boundaries intact (sender side).
  void record_out(BytesView frame);

  /// One kernel read() slice, boundaries as delivered (receiver side).
  void record_in(BytesView chunk);

  /// The inbound capture as one contiguous stream, in arrival order.
  Bytes in_stream() const;

  /// Recovers the framed payloads from the inbound stream by running
  /// `framer` over it (the framer must be fresh: its decode state becomes
  /// this stream's). Fails if the stream ends mid-frame or a frame is
  /// malformed — a capture of a clean conversation contains whole frames.
  Expected<std::vector<Bytes>> deframe_in(Framer& framer) const;

  std::size_t bytes_out() const;
  std::size_t bytes_in() const;

  void clear();

 private:
  mutable std::mutex mu_;
  std::vector<Bytes> out_;
  std::vector<Bytes> in_;
};

}  // namespace protoobf::net
