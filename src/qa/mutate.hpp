#pragma once

// Mutation engine of the QA subsystem (DESIGN.md §10). Two layers:
//
//   * generic mutators — bit flips, truncation, splices, window overwrite,
//     window duplication. Format-blind; the historical test_fuzz.cpp
//     helper, now the single source of truth every suite shares.
//
//   * structure-aware mutators — parse just enough of a frame envelope, a
//     PBIO stream, or a varint to mutate *fields* rather than bytes: forge
//     the version, a sequence varint at a width boundary, stretch a size
//     varint, retarget the method id — and, crucially, optionally re-fix
//     the frame's header checksum afterwards (with frame.cpp's own
//     frame_header_checksum) so the corruption penetrates past the first
//     integrity gate and lands on the deeper parsing layers that generic
//     bit flips rarely reach.
//
// Every mutator is a pure function of (input, Rng): the same seed replays
// the same mutation stream forever, which is what makes acexfuzz --replay
// bit-exact.

#include <cstdint>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace acex::qa {

/// Apply one generic mutation: bit flips, truncation, random-byte splice,
/// window overwrite, or window duplication (the latter confuses
/// varint/sentinel scanners). Format-blind.
Bytes mutate(const Bytes& input, Rng& rng);

/// Structure-aware frame mutator. Treats `framed` as a frame and mutates
/// one field (magic, version, method id, sequence varint, size varint,
/// header checksum, payload byte, CRC trailer); with probability ~1/2 the
/// header checksum is recomputed after the edit so the damage survives the
/// checksum gate. Falls back to mutate() when the buffer does not scan as
/// a frame header.
Bytes mutate_frame(const Bytes& framed, Rng& rng);

/// Structure-aware PBIO mutator: targets the stream header (magic,
/// version, byte-order flag), the schema region (format-name length,
/// field-count varint, a field-type tag) or a record body, instead of
/// uniformly random offsets. Falls back to mutate() on tiny buffers.
Bytes mutate_pbio(const Bytes& stream, Bytes (*fallback)(const Bytes&,
                                                         Rng&),
                  Rng& rng);
inline Bytes mutate_pbio(const Bytes& stream, Rng& rng) {
  return mutate_pbio(stream, &mutate, rng);
}

/// Structure-aware colpipe-payload mutator. Treats `packed` as a
/// ColumnarCodec payload (mode byte, columnar preamble, per-column
/// pipeline blobs) and mutates *fields*: the mode byte, the preamble/
/// column-count/blob-length varints, a pipeline header's stage-count or
/// stage-id varint (including forging UNKNOWN stage ids), a header CRC
/// byte, or stage payload bytes. With probability ~1/2 the pipeline
/// header CRC is recomputed after the edit so the damage penetrates the
/// CRC gate and lands on the stage decoders. Falls back to mutate() when
/// the buffer does not scan as a colpipe payload.
Bytes mutate_colpipe(const Bytes& packed, Rng& rng);

/// Codec-container mutator: biases half of all mutations into the first
/// few bytes of `packed` — where every built-in codec keeps its container
/// header (sizes, chunk counts, tree descriptions) — and applies generic
/// mutations elsewhere the rest of the time.
Bytes mutate_container(const Bytes& packed, Rng& rng);

/// Overwrite the LEB128 varint starting at `pos` (if one can be decoded
/// there) with an adversarial value: a width-boundary neighbour (127/128,
/// 16383/16384, ...), UINT64_MAX, zero, or an overlong encoding. Returns
/// the input unchanged when no varint starts at `pos`.
Bytes mutate_varint_at(const Bytes& input, std::size_t pos, Rng& rng);

/// Fuzz depth knob: the ACEX_FUZZ_ITERS environment variable when set to a
/// positive integer, otherwise `fallback`. Lets CI nightlies and local
/// deep runs crank the same suites ctest keeps short.
int fuzz_iterations(int fallback) noexcept;

}  // namespace acex::qa
