#include "qa/oracles.hpp"

#include <vector>

#include "adaptive/pipeline.hpp"
#include "colpipe/columnar_codec.hpp"
#include "compress/frame.hpp"
#include "compress/zlib_codec.hpp"
#include "pbio/pbio.hpp"
#include "echo/event.hpp"
#include "qa/delivery.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace acex::qa {
namespace {

std::string method_tag(MethodId id) {
  return std::string(method_name(id));
}

/// A series' reading in `snapshot` (gauges two's-complement, so deltas
/// subtract modulo 2^64); an absent series reads 0.
std::uint64_t reading(const obs::MetricsSnapshot& snapshot,
                      const std::string& series) {
  const obs::MetricPoint* p = snapshot.find(series);
  if (p == nullptr) return 0;
  if (p->kind == obs::MetricPoint::Kind::kHistogram) return p->hist.count;
  return p->kind == obs::MetricPoint::Kind::kGauge
             ? static_cast<std::uint64_t>(p->gauge)
             : p->counter;
}

}  // namespace

Verdict codec_roundtrip(MethodId id, ByteView data) {
  try {
    const CodecPtr codec = make_codec(id);
    const Bytes packed = codec->compress(data);
    const Bytes restored = codec->decompress(packed);
    if (restored.size() != data.size() ||
        !std::equal(restored.begin(), restored.end(), data.begin())) {
      return Verdict::fail(method_tag(id) + ": round-trip diverged at " +
                           std::to_string(data.size()) + " bytes");
    }
    if (codec->compress(data) != packed) {
      return Verdict::fail(method_tag(id) + ": compress not deterministic");
    }
  } catch (const Error& e) {
    return Verdict::fail(method_tag(id) +
                         ": threw on clean input: " + e.what());
  }
  return Verdict::pass();
}

Verdict decoder_bounds(MethodId id, const Bytes& mutated,
                       std::size_t original_hint) {
  // The decoder bound mirrors test_fuzz's: garbage output is fine (outer
  // CRC layers reject it), unbounded output is the finding. Arithmetic
  // coding's documented expansion guard dominates the constant.
  const std::size_t bound =
      (mutated.size() + original_hint + 64) * 2100;
  try {
    const CodecPtr codec = make_codec(id);
    const Bytes out = codec->decompress(mutated);
    if (out.size() > bound) {
      return Verdict::fail(method_tag(id) + ": unbounded decode, " +
                           std::to_string(out.size()) + " bytes from " +
                           std::to_string(mutated.size()));
    }
  } catch (const Error&) {
    // Detected corruption: the contract we promise.
  }
  return Verdict::pass();
}

Verdict frame_survives(const Bytes& mutated, const CodecRegistry& registry) {
  try {
    const Frame frame = frame_parse(mutated);
    // An accepted header must be internally consistent with the buffer.
    if (mutated[2] != kFrameVersionSeq) {
      return Verdict::fail("frame_parse accepted unknown version " +
                           std::to_string(mutated[2]));
    }
    if (frame.payload.size() +
            frame_overhead_seq(frame.payload.size(), frame.sequence) >
        mutated.size()) {
      return Verdict::fail("frame_parse payload larger than the buffer");
    }
    try {
      const Bytes out = frame_decompress(mutated, registry);
      // frame_decompress verifies the original-data CRC itself; delivering
      // bytes whose CRC disagrees with the header would be a finding.
      if (crc32(out) != frame.crc) {
        return Verdict::fail("frame_decompress delivered CRC-mismatched data");
      }
    } catch (const DecodeError&) {
      // Payload or method damage caught after the header parsed: fine.
    }
  } catch (const DecodeError&) {
    // Rejected up front: the common, correct outcome for mutated frames.
  } catch (const Error& e) {
    return Verdict::fail(std::string("frame path raised non-decode error: ") +
                         e.what());
  }
  return Verdict::pass();
}

Verdict pbio_survives(const Bytes& mutated) {
  try {
    const auto records = pbio::decode_stream(mutated);
    if (records.size() > 100000u) {
      return Verdict::fail("pbio decoded " + std::to_string(records.size()) +
                           " records from " + std::to_string(mutated.size()) +
                           " bytes");
    }
  } catch (const Error&) {
  }
  return Verdict::pass();
}

Verdict event_survives(const Bytes& mutated) {
  try {
    (void)echo::deserialize_event(mutated);
  } catch (const Error&) {
  }
  return Verdict::pass();
}

Verdict colpipe_roundtrip(ByteView data) {
  try {
    colpipe::ColumnarCodec codec;
    const Bytes packed = codec.compress(data);
    const Bytes restored = codec.decompress(packed);
    if (restored.size() != data.size() ||
        !std::equal(restored.begin(), restored.end(), data.begin())) {
      return Verdict::fail("colpipe: round-trip diverged at " +
                           std::to_string(data.size()) + " bytes");
    }
    if (codec.compress(data) != packed) {
      return Verdict::fail("colpipe: compress not deterministic");
    }
  } catch (const Error& e) {
    return Verdict::fail(std::string("colpipe: threw on clean input: ") +
                         e.what());
  }
  return Verdict::pass();
}

Verdict colpipe_survives(const Bytes& mutated, std::size_t original_hint) {
  const std::size_t bound = (mutated.size() + original_hint + 64) * 2100;
  try {
    colpipe::ColumnarCodec codec;
    const Bytes out = codec.decompress(mutated);
    if (out.size() > bound) {
      return Verdict::fail("colpipe: unbounded decode, " +
                           std::to_string(out.size()) + " bytes from " +
                           std::to_string(mutated.size()));
    }
  } catch (const Error&) {
    // Detected corruption: the contract we promise.
  }
  return Verdict::pass();
}

Verdict serial_parallel_identity(ByteView data, MethodId method,
                                 std::size_t workers, std::size_t block_size,
                                 std::size_t* blocks_out) {
  // The raw frames an n-worker sender puts on an identical emulated link.
  const auto wire_of = [&](std::size_t n) {
    VirtualClock clock;
    FaultedWire link(clock, 1e8, 1e9, 1);
    adaptive::AdaptiveSender sender(link.sender(),
                                    engine_config(n, block_size));
    colpipe::register_columnar(sender.registry());
    sender.send_all_fixed(data, method);
    std::vector<Bytes> frames;
    while (auto frame = link.receiver().receive()) {
      frames.push_back(std::move(*frame));
    }
    return frames;
  };
  const std::vector<Bytes> serial_wire = wire_of(1);
  const std::vector<Bytes> parallel_wire = wire_of(workers);

  if (blocks_out != nullptr) *blocks_out = serial_wire.size();
  if (serial_wire.size() != parallel_wire.size()) {
    return Verdict::fail(method_tag(method) + ": serial sent " +
                         std::to_string(serial_wire.size()) +
                         " frames, parallel " +
                         std::to_string(parallel_wire.size()));
  }
  CodecRegistry registry = CodecRegistry::with_builtins();
  colpipe::register_columnar(registry);
  Bytes reassembled;
  reassembled.reserve(data.size());
  for (std::size_t i = 0; i < serial_wire.size(); ++i) {
    if (serial_wire[i] != parallel_wire[i]) {
      return Verdict::fail(method_tag(method) + ": frame " +
                           std::to_string(i) + "/" +
                           std::to_string(serial_wire.size()) +
                           " differs between serial and " +
                           std::to_string(workers) + "-worker runs");
    }
    const Bytes block = frame_decompress(parallel_wire[i], registry);
    reassembled.insert(reassembled.end(), block.begin(), block.end());
  }
  if (reassembled.size() != data.size() ||
      !std::equal(reassembled.begin(), reassembled.end(), data.begin())) {
    return Verdict::fail(method_tag(method) +
                         ": reassembled payload diverged from the input");
  }
  return Verdict::pass();
}

Verdict serial_parallel_adaptive(ByteView data, std::size_t workers,
                                 std::size_t block_size) {
  // What an n-worker sender delivers over an identical emulated link.
  const auto delivered_by = [&](std::size_t n) {
    VirtualClock clock;
    FaultedWire link(clock, 1e8, 1e9, 1);
    adaptive::AdaptiveSender sender(link.sender(),
                                    engine_config(n, block_size));
    sender.send_all(data);
    return adaptive::AdaptiveReceiver(link.receiver()).receive_available();
  };
  const Bytes serial_payload = delivered_by(1);
  const Bytes parallel_payload = delivered_by(workers);

  if (serial_payload != parallel_payload) {
    return Verdict::fail("adaptive delivered payload diverged at " +
                         std::to_string(workers) + " workers");
  }
  if (serial_payload.size() != data.size() ||
      !std::equal(serial_payload.begin(), serial_payload.end(),
                  data.begin())) {
    return Verdict::fail("adaptive delivered payload is not the input");
  }
  return Verdict::pass();
}

Verdict zlib_agreement(ByteView data) {
  if (!zlib_available() || data.empty()) return Verdict::pass();
  try {
    const CodecPtr zlib = make_codec(MethodId::kZlib);
    const Bytes z = zlib->compress(data);
    if (zlib->decompress(z) != Bytes(data.begin(), data.end())) {
      return Verdict::fail("zlib comparator failed its own round-trip");
    }
    const CodecPtr lz = make_codec(MethodId::kLempelZiv);
    const double rz =
        static_cast<double>(z.size()) / static_cast<double>(data.size());
    const double rlz = static_cast<double>(lz->compress(data).size()) /
                       static_cast<double>(data.size());
    // Loose compressibility agreement: data one LZ-family implementation
    // finds highly compressible, the other must not find incompressible.
    if (rz < 0.4 && rlz > 0.95) {
      return Verdict::fail("zlib ratio " + std::to_string(rz) +
                           " but our LZ ratio " + std::to_string(rlz));
    }
    if (rlz < 0.4 && rz > 0.95) {
      return Verdict::fail("our LZ ratio " + std::to_string(rlz) +
                           " but zlib ratio " + std::to_string(rz));
    }
  } catch (const Error& e) {
    return Verdict::fail(std::string("zlib comparator threw: ") + e.what());
  }
  return Verdict::pass();
}

std::vector<std::string> check_series(const obs::MetricsSnapshot& before,
                                      const obs::MetricsSnapshot& after,
                                      const std::vector<SeriesRow>& rows) {
  std::vector<std::string> violations;
  for (const SeriesRow& row : rows) {
    const std::uint64_t delta =
        reading(after, row.series) - reading(before, row.series);
    if (delta != row.truth) {
      violations.push_back(
          row.series + ": obs delta " +
          std::to_string(static_cast<std::int64_t>(delta)) +
          " != ground truth " +
          std::to_string(static_cast<std::int64_t>(row.truth)));
    }
  }
  return violations;
}

}  // namespace acex::qa
