#include "compress/frame.hpp"

#include <algorithm>

#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/varint.hpp"

namespace acex {
namespace {

constexpr std::uint8_t kMagic0 = 'A';
constexpr std::uint8_t kMagic1 = 'X';

// Minimum well-formed size: magic(2) + version(1) + method(1) + varint
// sequence(>=1) + varint size(>=1) + header checksum(1) + crc(4).
constexpr std::size_t kMinFrame = 11;

}  // namespace

std::uint8_t frame_header_checksum(ByteView header) noexcept {
  std::uint8_t sum = 0x5A;
  for (const std::uint8_t byte : header) sum ^= byte;
  return sum;
}

Bytes frame_compress_seq(Codec& codec, ByteView data, std::uint64_t sequence) {
  const std::uint32_t crc = crc32(data);
  const Bytes payload = codec.compress(data);
  return frame_build_seq(codec.id(), payload, crc, sequence);
}

Bytes frame_build_seq(MethodId method, ByteView payload,
                      std::uint32_t original_crc, std::uint64_t sequence) {
  Bytes out(frame_overhead_seq(payload.size(), sequence) + payload.size());
  frame_build_seq_into(out.data(), method, payload, original_crc, sequence);
  return out;
}

std::size_t frame_build_seq_into(std::uint8_t* dst, MethodId method,
                                 ByteView payload, std::uint32_t original_crc,
                                 std::uint64_t sequence) {
  // The one header writer. The header is tiny (<= 25 bytes); building it
  // in a scratch vector and writing payload + trailer straight into `dst`
  // makes only ONE pass over the payload — the copy into the destination
  // (a heap frame, or a shared-memory slab on the shm path).
  Bytes head;
  head.reserve(32);
  head.push_back(kMagic0);
  head.push_back(kMagic1);
  head.push_back(kFrameVersionSeq);
  head.push_back(static_cast<std::uint8_t>(method));
  put_varint(head, sequence);
  put_varint(head, payload.size());
  head.push_back(frame_header_checksum(head));
  std::copy(head.begin(), head.end(), dst);
  std::copy(payload.begin(), payload.end(), dst + head.size());
  std::uint8_t* trailer = dst + head.size() + payload.size();
  for (int i = 0; i < 4; ++i) {
    trailer[i] = static_cast<std::uint8_t>(original_crc >> (8 * i));
  }
  return head.size() + payload.size() + 4;
}

namespace {

/// Shared validation body of both frame_parse overloads. The returned
/// frame's payload BORROWS `framed`; each public overload fixes the
/// lifetime up to its own contract (copy vs shared alias).
Frame frame_parse_borrowed(ByteView framed) {
  if (framed.size() < kMinFrame) throw DecodeError("frame: too short");
  if (framed[0] != kMagic0 || framed[1] != kMagic1) {
    throw DecodeError("frame: bad magic");
  }
  if (framed[2] != kFrameVersionSeq) throw DecodeError("frame: bad version");

  Frame frame;
  frame.method = static_cast<MethodId>(framed[3]);
  std::size_t pos = 4;
  frame.sequence = get_varint(framed, &pos);
  const std::uint64_t payload_size = get_varint(framed, &pos);

  // Validate the header before trusting any of it: a flipped bit in the
  // sequence or size varints must not send us off into the payload.
  if (pos >= framed.size()) throw DecodeError("frame: too short");
  if (framed[pos] != frame_header_checksum(framed.first(pos))) {
    throw DecodeError("frame: header checksum mismatch");
  }
  ++pos;

  // Overflow-safe size check: get_varint guarantees pos <= framed.size(),
  // so `remaining` cannot wrap — unlike `pos + payload_size + 4`, which an
  // adversarial varint can overflow past SIZE_MAX.
  const std::size_t remaining = framed.size() - pos;
  if (remaining < 4 || remaining - 4 != payload_size) {
    throw DecodeError("frame: size mismatch");
  }
  frame.payload = BufferView::borrow(framed.subspan(pos, payload_size));
  pos += payload_size;
  frame.crc = 0;
  for (int i = 0; i < 4; ++i) {
    frame.crc |= static_cast<std::uint32_t>(framed[pos + i]) << (8 * i);
  }
  return frame;
}

}  // namespace

Frame frame_parse(ByteView framed) {
  Frame frame = frame_parse_borrowed(framed);
  // Historical contract: the parsed Frame outlives the wire buffer.
  frame.payload = BufferView::copy(frame.payload);
  return frame;
}

Frame frame_parse(const BufferView& framed) {
  Frame frame = frame_parse_borrowed(framed.view());
  // Re-anchor the borrowed payload on the wire buffer's owner so it stays
  // valid for the Frame's whole lifetime — zero copies.
  const std::size_t offset =
      static_cast<std::size_t>(frame.payload.data() - framed.data());
  frame.payload = framed.subview(offset, frame.payload.size());
  return frame;
}

Bytes frame_decode(const Frame& frame, const CodecRegistry& registry) {
  // An unknown method id off the wire is corrupt data (or a peer speaking a
  // newer dialect), not caller misuse: report it as a decode failure so
  // recovery policies treat the frame like any other damaged one.
  if (!registry.contains(frame.method)) {
    throw DecodeError("frame: unknown method id " +
                      std::to_string(static_cast<int>(frame.method)));
  }
  const CodecPtr codec = registry.create(frame.method);
  Bytes data = codec->decompress(frame.payload);
  if (crc32(data) != frame.crc) {
    throw DecodeError("frame: CRC mismatch after decompression");
  }
  return data;
}

Bytes frame_decompress(ByteView framed, const CodecRegistry& registry) {
  return frame_decode(frame_parse(framed), registry);
}

std::size_t frame_overhead_seq(std::size_t payload_size,
                               std::uint64_t sequence) noexcept {
  return 2 + 1 + 1 + varint_size(sequence) + varint_size(payload_size) + 1 + 4;
}

}  // namespace acex
