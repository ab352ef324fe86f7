#pragma once

#include <cstdint>

#include "compress/codec.hpp"
#include "compress/registry.hpp"
#include "util/buffer_view.hpp"

namespace acex {

/// Self-describing wire envelope around a codec payload. A receiver can
/// decode any frame knowing only the registry — the frame carries the
/// method id — and detects corruption anywhere along the path via a CRC of
/// the *original* (decompressed) bytes. There is one layout (version 2):
///
///   magic "AX" | version=2 (1) | method id (1) | varint sequence |
///   varint payload size | header checksum (1) | payload |
///   crc32 of original data, LE (4)
///
/// The per-stream sequence number makes drops, duplicates and reorders
/// detectable by the receiver. The 1-byte header checksum covers every
/// header byte before it, so a corrupted header is rejected before any
/// decoder runs (and before a damaged varint size can misdirect parsing).
/// Any other version byte is `frame: bad version`.
inline constexpr std::uint8_t kFrameVersionSeq = 2;

struct Frame {
  MethodId method = MethodId::kNone;
  /// Codec output (compressed bytes). A span-with-owner: frame_parse over
  /// a plain ByteView copies (the historical contract — the Frame outlives
  /// its wire buffer), while the BufferView overload aliases the wire
  /// bytes in place and shares their owner, so a frame mapped out of a
  /// shared-memory slab is decoded with zero payload copies.
  BufferView payload;
  std::uint32_t crc = 0;       ///< CRC-32 of the original data
  std::uint64_t sequence = 0;  ///< stream sequence number
};

/// The header checksum: XOR of `header` (every header byte before the
/// checksum byte), seeded with 0x5A so an all-zero header does not
/// trivially checksum to zero. The one copy every frame writer, the parser
/// and the fuzz mutator share.
std::uint8_t frame_header_checksum(ByteView header) noexcept;

/// Compress `data` with `codec` and wrap the result in a frame carrying
/// `sequence`.
Bytes frame_compress_seq(Codec& codec, ByteView data, std::uint64_t sequence);

/// Wrap an ALREADY-COMPRESSED payload in a frame. `original_crc` must be
/// the CRC-32 of the original (uncompressed) data, exactly as
/// frame_compress_seq would compute it. This is the shared-encode
/// primitive: one codec run can be framed once per subscriber, each with
/// its own sequence number, without recompressing — the resulting bytes
/// are identical to frame_compress_seq for the same (payload, sequence).
Bytes frame_build_seq(MethodId method, ByteView payload,
                      std::uint32_t original_crc, std::uint64_t sequence);

/// frame_build_seq written straight into caller storage (byte-identical
/// output): `dst` must hold frame_overhead_seq(payload.size(), sequence) +
/// payload.size() bytes. Returns the bytes written. This is the staging
/// primitive of the shm transport — the frame is materialized directly
/// inside a shared-memory slab, so the payload is copied exactly once.
std::size_t frame_build_seq_into(std::uint8_t* dst, MethodId method,
                                 ByteView payload, std::uint32_t original_crc,
                                 std::uint64_t sequence);

/// Parse a frame without decompressing. Throws DecodeError
/// on malformed or truncated envelopes, including header-checksum failures.
/// The payload is COPIED out of `framed` (the parsed Frame outlives the
/// wire buffer) — receivers on the zero-copy path use the BufferView
/// overload below instead.
Frame frame_parse(ByteView framed);

/// Zero-copy parse: identical validation, but the returned Frame's payload
/// ALIASES `framed`'s bytes and shares its owner, so no payload copy is
/// made and the wire buffer (heap block or mapped slab) stays alive for as
/// long as the Frame does. This is the receiver hot path: decode reads the
/// compressed bytes straight out of transport-owned storage.
Frame frame_parse(const BufferView& framed);

/// Parse, look the codec up in `registry`, decompress, and verify the CRC.
/// A method id the registry does not know is corrupt wire data, not caller
/// misuse, so it surfaces as DecodeError.
Bytes frame_decompress(ByteView framed, const CodecRegistry& registry);

/// Decompress an already-parsed frame (skips re-parsing; used by receivers
/// that need the header before deciding how to recover).
Bytes frame_decode(const Frame& frame, const CodecRegistry& registry);

/// Size in bytes of the envelope around a payload of `payload_size`
/// with sequence number `sequence`.
std::size_t frame_overhead_seq(std::size_t payload_size,
                               std::uint64_t sequence) noexcept;

}  // namespace acex
