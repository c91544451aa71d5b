// Streaming throughput: Channel (framed byte stream) vs raw Session.
//
// The Channel is the intended server entry point for TCP traffic, so its
// overhead over the raw batch paths is the number to watch: framing on
// send, reassembly + frame decode + batched parse on receive. Measured
// across chunk sizes because delivery granularity decides how often the
// reader re-attempts a decode:
//
//   serialize/session    Session::serialize() per message (arena path)
//   serialize/channel    Channel::send() — serialize + frame, arena-backed
//   parse/session        Session::parse_batch() on pre-split wire images —
//                        the baseline with boundaries known a priori
//   parse/channel@N      feed the concatenated framed stream in N-byte
//                        chunks, Channel::drain_batch() per chunk
//
// Plus the adversarial scenario: a *delimiter-bounded* frame spec (no
// length field anywhere) delivered one byte at a time. The resumable
// prefix parse must keep decode work amortized O(1) per delivered byte,
// i.e. bytes-rescanned-per-frame stays O(frame size) — restarting every
// attempt from byte 0 would rescan O(frame²). The counters land in
// BENCH_stream.json.
//
// The CI smoke step guards "channel/session" (whole-stream delivery) and
// "delim rescan-ratio resume" (rescanned bytes per frame over frame size:
// a bounded constant, where restart-from-zero would sit near frame/2).
//
// Usage: bench_throughput_stream [messages] [repeats] [per_node] [json]
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.hpp"
#include "session/protocol_cache.hpp"
#include "stream/channel.hpp"

namespace {

using namespace protoobf;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

std::uint64_t msg_seed_of(std::size_t i) {
  return 0x57ea + 11400714819323198485ull * i;
}

}  // namespace

/// Delimiter-bounded frame spec trickle: `frames` framed payloads of
/// `payload_size` ASCII bytes, delivered one byte at a time through a
/// StreamReader. Reports the framing-layer cost counters.
struct TrickleResult {
  double decodes_per_frame = 0;
  double rescanned_per_frame = 0;  // scan work beyond one pass of the wire
  double frame_size = 0;
  double seconds = 0;
};

TrickleResult run_delim_trickle(std::size_t frames,
                                std::size_t payload_size) {
  constexpr std::string_view kDelimFrameSpec = R"(
protocol DelimFrame
frame: seq end {
  fbody: terminal delimited("\r\n") ascii
}
)";
  ProtocolCache cache;
  ObfuscationConfig identity;
  identity.seed = 1;
  identity.per_node = 0;
  auto framing = cache.get_or_compile(kDelimFrameSpec, identity);
  if (!framing) {
    std::fprintf(stderr, "delim frame compile failed: %s\n",
                 framing.error().message.c_str());
    std::exit(1);
  }
  ObfuscatedFramer::Config cfg;
  cfg.payload_path = "fbody";
  auto framer = ObfuscatedFramer::create(*framing, cfg);
  if (!framer) {
    std::fprintf(stderr, "framer create failed: %s\n",
                 framer.error().message.c_str());
    std::exit(1);
  }

  Bytes stream;
  const Bytes payload(payload_size, static_cast<Byte>('x'));
  Bytes framed;
  for (std::size_t i = 0; i < frames; ++i) {
    if (Status s = (*framer)->encode(payload, framed); !s) {
      std::fprintf(stderr, "frame encode failed: %s\n",
                   s.error().message.c_str());
      std::exit(1);
    }
    append(stream, framed);
  }

  StreamReader reader(**framer);
  std::size_t got = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < stream.size(); ++i) {
    reader.feed(BytesView(stream).subspan(i, 1));
    while (reader.next_frame()) ++got;
    if (reader.failed()) {
      std::fprintf(stderr, "delim trickle failed: %s\n",
                   reader.error().message.c_str());
      std::exit(1);
    }
  }
  TrickleResult r;
  r.seconds = seconds_since(start);
  if (got != frames) {
    std::fprintf(stderr, "delim trickle lost frames: %zu/%zu\n", got, frames);
    std::exit(1);
  }
  const ParseResume::Stats& stats = (*framer)->resume_stats();
  r.decodes_per_frame =
      static_cast<double>(stats.attempts) / static_cast<double>(frames);
  // One pass over the wire is the unavoidable floor; everything above it
  // is re-examination of bytes a previous attempt already saw.
  const double rescanned =
      stats.scanned_bytes > stream.size()
          ? static_cast<double>(stats.scanned_bytes - stream.size())
          : 0.0;
  r.rescanned_per_frame = rescanned / static_cast<double>(frames);
  r.frame_size =
      static_cast<double>(stream.size()) / static_cast<double>(frames);
  return r;
}

int main(int argc, char** argv) {
  const std::size_t messages =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 256;
  const int repeats = argc > 2 ? std::atoi(argv[2]) : 6;
  const int per_node = argc > 3 ? std::atoi(argv[3]) : 2;
  const char* json_path = argc > 4 ? argv[4] : "BENCH_stream.json";
  if (messages == 0 || repeats <= 0 || per_node < 0) {
    std::fprintf(stderr,
                 "usage: bench_throughput_stream [messages>0] [repeats>0] "
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

  WorkerPool pool;
  Session sender(*entry, &pool);
  Session receiver(*entry, &pool);
  LengthPrefixFramer send_framer;
  LengthPrefixFramer recv_framer;
  Channel out(sender, send_framer);
  Channel in(receiver, recv_framer);

  // Fixture: plain wire images (the session baseline's input) and the
  // concatenated framed stream (the channel's input).
  std::vector<Bytes> wires;
  Bytes stream;
  for (std::size_t i = 0; i < messages; ++i) {
    auto wire = protocol.serialize(msgs[i].root(), msg_seed_of(i));
    if (!wire) {
      std::fprintf(stderr, "serialize failed: %s\n",
                   wire.error().message.c_str());
      return 1;
    }
    auto framed = out.send(msgs[i].root(), msg_seed_of(i));
    if (!framed) {
      std::fprintf(stderr, "send failed: %s\n",
                   framed.error().message.c_str());
      return 1;
    }
    append(stream, *framed);
    wires.push_back(std::move(*wire));
  }
  std::vector<BytesView> views(wires.begin(), wires.end());

  const std::size_t chunk_sizes[] = {64, 1024, stream.size()};
  std::size_t checksum = 0;

  // One timed run of each path, interleaved over kTrials rounds; best
  // window wins (same discipline as bench_throughput_session).
  const auto run_channel = [&](std::size_t chunk) {
    std::size_t got = 0;
    std::size_t offset = 0;
    while (offset < stream.size()) {
      const std::size_t n = std::min(chunk, stream.size() - offset);
      in.on_bytes(BytesView(stream).subspan(offset, n));
      offset += n;
      auto batch = in.drain_batch();
      for (const auto& tree : batch) {
        checksum += tree ? (*tree)->children.size() : 0;
        ++got;
      }
    }
    return got;
  };

  struct Row {
    const char* label;
    double msgs_per_sec = 0;
  };
  Row ser_session{"serialize/session"};
  Row ser_channel{"serialize/channel"};
  Row parse_session{"parse/session"};
  std::vector<Row> parse_channel;
  static char labels[3][32];
  for (std::size_t c = 0; c < 3; ++c) {
    std::snprintf(labels[c], sizeof labels[c], "parse/channel@%zu",
                  chunk_sizes[c]);
    parse_channel.push_back(Row{labels[c]});
  }

  constexpr int kTrials = 5;
  const double total =
      static_cast<double>(messages) * static_cast<double>(repeats);
  for (int t = 0; t < kTrials; ++t) {
    {
      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        for (std::size_t i = 0; i < messages; ++i) {
          auto wire = sender.serialize(msgs[i].root(), msg_seed_of(i));
          checksum += wire ? wire->size() : 0;
        }
      }
      ser_session.msgs_per_sec =
          std::max(ser_session.msgs_per_sec, total / seconds_since(start));
    }
    {
      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        for (std::size_t i = 0; i < messages; ++i) {
          auto framed = out.send(msgs[i].root(), msg_seed_of(i));
          checksum += framed ? framed->size() : 0;
        }
      }
      ser_channel.msgs_per_sec =
          std::max(ser_channel.msgs_per_sec, total / seconds_since(start));
    }
    {
      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) {
        auto batch = receiver.parse_batch(views);
        for (const auto& tree : batch) {
          checksum += tree ? (*tree)->children.size() : 0;
        }
      }
      parse_session.msgs_per_sec =
          std::max(parse_session.msgs_per_sec, total / seconds_since(start));
    }
    for (std::size_t c = 0; c < 3; ++c) {
      std::size_t got = 0;
      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < repeats; ++r) got += run_channel(chunk_sizes[c]);
      if (got != messages * static_cast<std::size_t>(repeats)) {
        std::fprintf(stderr, "FRAMING LOST MESSAGES: %zu/%zu\n", got,
                     messages * static_cast<std::size_t>(repeats));
        return 1;
      }
      parse_channel[c].msgs_per_sec =
          std::max(parse_channel[c].msgs_per_sec,
                   total / seconds_since(start));
    }
  }

  std::printf("throughput_stream — %s, per_node=%d, %zu msgs x %d repeats, "
              "stream %zu bytes, %zu-way batches\n",
              workload.name.c_str(), per_node, messages, repeats,
              stream.size(), receiver.batch_width());
  const auto print_row = [](const Row& row) {
    std::printf("  %-20s %12.0f msgs/s\n", row.label, row.msgs_per_sec);
  };
  print_row(ser_session);
  print_row(ser_channel);
  print_row(parse_session);
  for (const Row& row : parse_channel) print_row(row);
  std::printf("  serialize channel/session: %.3fx\n",
              ser_channel.msgs_per_sec / ser_session.msgs_per_sec);
  std::printf("  parse     channel/session: %.3fx\n",
              parse_channel[2].msgs_per_sec / parse_session.msgs_per_sec);

  // Delimiter-bounded frame spec under 1-byte delivery: the adversarial
  // trickle.
  const std::size_t trickle_frames = std::min<std::size_t>(messages, 32);
  const TrickleResult resume_run = run_delim_trickle(trickle_frames, 192);
  // Rescanned bytes per frame normalized by the frame size: O(1)-per-byte
  // decode work keeps this a small constant; restart-from-zero would make
  // it grow with the frame itself (~frame/2). CI guards it.
  const double resume_ratio =
      resume_run.rescanned_per_frame / resume_run.frame_size;
  std::printf("  delim-trickle (frame %.0f B, 1-byte delivery, %zu frames)\n",
              resume_run.frame_size, trickle_frames);
  std::printf("    decodes/frame:   %8.1f\n", resume_run.decodes_per_frame);
  std::printf("    rescanned/frame: %8.0f B\n",
              resume_run.rescanned_per_frame);
  std::printf("  delim rescan-ratio resume:  %.3fx of frame\n", resume_ratio);
  std::printf("  (checksum %zu)\n", checksum);

  if (std::FILE* f = std::fopen(json_path, "w")) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"throughput_stream\",\n"
                 "  \"workload\": \"%s\",\n"
                 "  \"per_node\": %d,\n"
                 "  \"messages\": %zu,\n"
                 "  \"repeats\": %d,\n"
                 "  \"serialize_session_msgs_per_sec\": %.0f,\n"
                 "  \"serialize_channel_msgs_per_sec\": %.0f,\n"
                 "  \"parse_session_msgs_per_sec\": %.0f,\n"
                 "  \"parse_channel_msgs_per_sec\": %.0f,\n"
                 "  \"delim_trickle_frame_bytes\": %.0f,\n"
                 "  \"delim_trickle_frames\": %zu,\n"
                 "  \"delim_decodes_per_frame_resume\": %.1f,\n"
                 "  \"delim_rescanned_per_frame_resume\": %.0f,\n"
                 "  \"delim_rescan_ratio_resume\": %.3f\n"
                 "}\n",
                 workload.name.c_str(), per_node, messages, repeats,
                 ser_session.msgs_per_sec, ser_channel.msgs_per_sec,
                 parse_session.msgs_per_sec,
                 parse_channel[2].msgs_per_sec, resume_run.frame_size,
                 trickle_frames, resume_run.decodes_per_frame,
                 resume_run.rescanned_per_frame, resume_ratio);
    std::fclose(f);
    std::printf("  wrote %s\n", json_path);
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  return 0;
}
