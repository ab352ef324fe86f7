// Quickstart: the acex public API in five minutes.
//
//   1. compress bytes with any of the paper's codecs;
//   2. wrap payloads in self-describing frames (CRC-checked, method-tagged);
//   3. let the §2.5 selection algorithm pick methods per block, adaptively,
//      while streaming over an emulated network link.
//
// Build & run:  cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "adaptive/pipeline.hpp"
#include "compress/frame.hpp"
#include "compress/registry.hpp"
#include "netsim/link.hpp"
#include "transport/sim_transport.hpp"
#include "workloads/transactions.hpp"

int main() {
  using namespace acex;

  // ----- 1. plain codecs -------------------------------------------------
  workloads::TransactionGenerator gen(1);
  const Bytes data = gen.text_block(256 * 1024);

  std::printf("codecs on %zu bytes of transaction text:\n", data.size());
  for (const MethodId id : paper_methods()) {
    CodecPtr codec = make_codec(id);
    const Bytes packed = codec->compress(data);
    const Bytes restored = codec->decompress(packed);
    std::printf("  %-16s -> %6zu bytes (%5.1f %%)  lossless=%s\n",
                std::string(method_name(id)).c_str(), packed.size(),
                100.0 * static_cast<double>(packed.size()) /
                    static_cast<double>(data.size()),
                restored == data ? "yes" : "NO");
  }

  // ----- 2. frames -------------------------------------------------------
  // A frame names its codec, carries a stream sequence number and a CRC of
  // the original bytes, so a receiver needs nothing but the registry to
  // decode it.
  const CodecRegistry registry = CodecRegistry::with_builtins();
  CodecPtr lz = make_codec(MethodId::kLempelZiv);
  const Bytes framed = frame_compress_seq(*lz, data, /*sequence=*/0);
  const Bytes back = frame_decompress(framed, registry);
  std::printf("\nframed round-trip: %zu -> %zu -> %zu bytes, intact=%s\n",
              data.size(), framed.size(), back.size(),
              back == data ? "yes" : "NO");

  // ----- 3. adaptive streaming over an emulated link ----------------------
  // A virtual-clock 1 Mb/s link: slow enough that compression clearly pays.
  VirtualClock clock;
  netsim::SimLink forward(netsim::megabit_link(), /*seed=*/7);
  netsim::SimLink reverse(netsim::megabit_link(), /*seed=*/8);
  transport::SimDuplex wire(forward, reverse, clock);

  adaptive::AdaptiveConfig config;
  config.async_sampling = false;  // keep this demo deterministic
  config.on_cpu_time = [&clock](Seconds t) { clock.advance(t); };

  adaptive::AdaptiveSender sender(wire.a(), config);
  adaptive::AdaptiveReceiver receiver(wire.b());

  const Bytes stream_data = gen.text_block(1024 * 1024);
  const adaptive::StreamReport report = sender.send_all(stream_data);
  const Bytes received = receiver.receive_available();

  std::printf("\nadaptive stream over the 1 Mb link:\n");
  for (const auto& b : report.blocks) {
    std::printf("  block %zu: %-16s %6zu -> %6zu bytes\n", b.index,
                std::string(method_name(b.method)).c_str(), b.original_size,
                b.wire_size);
  }
  std::printf(
      "total %.2f virtual seconds (raw would need %.2f s); received "
      "intact=%s\n",
      report.total_seconds,
      static_cast<double>(stream_data.size()) /
          netsim::megabit_link().bandwidth_Bps,
      received == stream_data ? "yes" : "NO");
  return 0;
}
