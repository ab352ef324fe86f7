#include "qa/mutate.hpp"

#include <algorithm>
#include <cstdlib>
#include <optional>

#include "compress/frame.hpp"
#include "util/crc32.hpp"

namespace acex::qa {
namespace {

/// Bounded LEB128 scan: value + encoded length at `pos`, or nullopt when
/// no well-formed varint starts there. Never throws — mutators must keep
/// working on buffers that are already damaged.
struct ScannedVarint {
  std::uint64_t value = 0;
  std::size_t length = 0;
};

std::optional<ScannedVarint> scan_varint(const Bytes& in,
                                         std::size_t pos) noexcept {
  std::uint64_t value = 0;
  int shift = 0;
  for (std::size_t i = pos; i < in.size() && shift < 64; ++i, shift += 7) {
    const std::uint8_t byte = in[i];
    value |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return ScannedVarint{value, i - pos + 1};
  }
  return std::nullopt;
}

void append_varint(Bytes& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// Values that straddle every LEB128 width boundary, plus the extremes.
constexpr std::uint64_t kVarintBoundaries[] = {
    0,
    1,
    0x7F,
    0x80,
    0x3FFF,
    0x4000,
    0x1FFFFF,
    0x200000,
    0xFFFFFFF,
    0x10000000,
    0xFFFFFFFFull,
    0x100000000ull,
    0xFFFFFFFFFFFFull,
    0xFFFFFFFFFFFFFFFFull,
};

void flip_random_bit(Bytes& out, Rng& rng) {
  if (out.empty()) return;
  out[rng.below(out.size())] ^= static_cast<std::uint8_t>(1u << rng.below(8));
}

// ---------------------------------------------------------- frame layout

constexpr std::size_t kFrameMethodPos = 3;  // "AX" + version byte

/// Header geometry of a (possibly damaged) frame buffer, as byte offsets
/// into the buffer.
struct FrameLayout {
  std::size_t seq_pos = 0;       ///< sequence varint
  std::size_t size_pos = 0;      ///< payload-size varint
  std::size_t checksum_pos = 0;  ///< header-checksum byte
  std::size_t payload_pos = 0;   ///< first payload byte
};

std::optional<FrameLayout> scan_frame(const Bytes& framed) noexcept {
  if (framed.size() < 5 || framed[0] != 'A' || framed[1] != 'X' ||
      framed[2] != kFrameVersionSeq) {
    return std::nullopt;
  }
  FrameLayout layout;
  layout.seq_pos = kFrameMethodPos + 1;
  const auto seq = scan_varint(framed, layout.seq_pos);
  if (!seq) return std::nullopt;
  layout.size_pos = layout.seq_pos + seq->length;
  const auto size = scan_varint(framed, layout.size_pos);
  if (!size) return std::nullopt;
  layout.checksum_pos = layout.size_pos + size->length;
  layout.payload_pos = layout.checksum_pos + 1;
  if (layout.payload_pos > framed.size()) return std::nullopt;
  return layout;
}

/// Recompute the header checksum after a field edit, so the mutation
/// reaches the layers behind the gate.
void fix_header_checksum(Bytes& framed) {
  const auto layout = scan_frame(framed);
  if (!layout) return;
  framed[layout->checksum_pos] = frame_header_checksum(
      ByteView(framed).first(layout->checksum_pos));
}

}  // namespace

Bytes mutate(const Bytes& input, Rng& rng) {
  Bytes out = input;
  switch (rng.below(5)) {
    case 0:  // bit flips
      for (std::uint64_t i = 0, n = 1 + rng.below(8); i < n && !out.empty();
           ++i) {
        out[rng.below(out.size())] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      }
      break;
    case 1:  // truncate
      out.resize(rng.below(out.size() + 1));
      break;
    case 2:  // splice random bytes
      if (!out.empty()) {
        const std::size_t at = rng.below(out.size());
        const Bytes junk = rng.bytes(1 + rng.below(16));
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                   junk.begin(), junk.end());
      }
      break;
    case 3: {  // overwrite a window
      if (!out.empty()) {
        const std::size_t at = rng.below(out.size());
        const std::size_t len = std::min<std::size_t>(
            1 + rng.below(32), out.size() - at);
        const Bytes junk = rng.bytes(len);
        std::copy(junk.begin(), junk.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(at));
      }
      break;
    }
    case 4:  // duplicate a window (confuses varint/sentinel scanners)
      if (out.size() > 4) {
        const std::size_t at = rng.below(out.size() - 4);
        out.insert(out.end(), out.begin() + static_cast<std::ptrdiff_t>(at),
                   out.begin() + static_cast<std::ptrdiff_t>(at + 4));
      }
      break;
  }
  return out;
}

Bytes mutate_varint_at(const Bytes& input, std::size_t pos, Rng& rng) {
  const auto existing = scan_varint(input, pos);
  if (!existing) return input;
  Bytes replacement;
  switch (rng.below(4)) {
    case 0:  // width-boundary neighbour
      append_varint(replacement,
                    kVarintBoundaries[rng.below(std::size(kVarintBoundaries))]);
      break;
    case 1:  // random value, random width
      append_varint(replacement, rng() >> rng.below(64));
      break;
    case 2: {  // overlong encoding of the original value
      std::uint64_t v = existing->value;
      do {
        replacement.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
      } while (v != 0);
      replacement.push_back(0x00);  // redundant terminator
      break;
    }
    case 3:  // never-terminating varint
      replacement.assign(10 + rng.below(4), 0xFF);
      break;
  }
  Bytes out = input;
  out.erase(out.begin() + static_cast<std::ptrdiff_t>(pos),
            out.begin() + static_cast<std::ptrdiff_t>(pos + existing->length));
  out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
             replacement.begin(), replacement.end());
  return out;
}

Bytes mutate_frame(const Bytes& framed, Rng& rng) {
  const auto layout = scan_frame(framed);
  if (!layout) return mutate(framed, rng);
  Bytes out = framed;
  switch (rng.below(8)) {
    case 0:  // magic
      out[rng.below(2)] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    case 1:  // version: the retired v1, or any byte at all
      out[2] = rng.chance(0.5) ? std::uint8_t{1}
                               : static_cast<std::uint8_t>(rng.below(256));
      break;
    case 2: {  // method id: a different valid one, or garbage
      static constexpr std::uint8_t kIds[] = {0, 1, 2, 3, 4, 5, 77, 100, 200,
                                              255};
      out[kFrameMethodPos] = kIds[rng.below(std::size(kIds))];
      break;
    }
    case 3:  // sequence varint
      out = mutate_varint_at(out, layout->seq_pos, rng);
      break;
    case 4:  // payload-size varint
      out = mutate_varint_at(out, layout->size_pos, rng);
      break;
    case 5:  // header checksum byte
      out[layout->checksum_pos] ^=
          static_cast<std::uint8_t>(1 + rng.below(255));
      break;
    case 6:  // payload byte
      if (layout->payload_pos < out.size()) {
        out[layout->payload_pos +
            rng.below(out.size() - layout->payload_pos)] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      }
      break;
    case 7:  // CRC trailer
      if (out.size() >= 4) {
        out[out.size() - 1 - rng.below(4)] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      }
      break;
  }
  // Half the time, make the forged header self-consistent again so the
  // mutation penetrates past the checksum gate to the deeper layers.
  if (rng.chance(0.5)) fix_header_checksum(out);
  return out;
}

Bytes mutate_pbio(const Bytes& stream,
                  Bytes (*fallback)(const Bytes&, Rng&), Rng& rng) {
  // Header: 'P' 'B' | version | byte order | name string (varint len +
  // bytes) | field-count varint | per field: name string + type byte.
  if (stream.size() < 6 || stream[0] != 'P' || stream[1] != 'B') {
    return fallback(stream, rng);
  }
  Bytes out = stream;
  const std::size_t name_pos = 4;
  const auto name_len = scan_varint(out, name_pos);
  switch (rng.below(6)) {
    case 0:  // magic / version / byte-order flag
      out[rng.below(4)] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      break;
    case 1:  // format-name length varint
      out = mutate_varint_at(out, name_pos, rng);
      break;
    case 2: {  // field-count varint
      if (!name_len) return fallback(stream, rng);
      const std::size_t count_pos =
          name_pos + name_len->length +
          static_cast<std::size_t>(name_len->value);
      if (count_pos >= out.size()) return fallback(stream, rng);
      out = mutate_varint_at(out, count_pos, rng);
      break;
    }
    case 3: {  // a field-type tag inside the schema region
      if (!name_len) return fallback(stream, rng);
      std::size_t pos = name_pos + name_len->length +
                        static_cast<std::size_t>(name_len->value);
      const auto count = scan_varint(out, pos);
      if (!count || count->value == 0 || count->value > 64) {
        return fallback(stream, rng);
      }
      pos += count->length;
      const std::uint64_t target = rng.below(count->value);
      for (std::uint64_t f = 0; f <= target; ++f) {
        const auto field_name = scan_varint(out, pos);
        if (!field_name) return fallback(stream, rng);
        pos += field_name->length +
               static_cast<std::size_t>(field_name->value);
        if (pos >= out.size()) return fallback(stream, rng);
        if (f == target) {
          out[pos] = static_cast<std::uint8_t>(rng.below(16));  // type tag
          return out;
        }
        ++pos;  // skip the type byte
      }
      break;
    }
    case 4: {  // record body, past the schema
      if (!name_len) return fallback(stream, rng);
      const std::size_t body_floor =
          std::min(out.size() - 1, name_pos + name_len->length +
                                       static_cast<std::size_t>(
                                           name_len->value));
      const std::size_t at = body_floor + rng.below(out.size() - body_floor);
      out[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
      break;
    }
    case 5:
      return fallback(stream, rng);
  }
  return out;
}

namespace {

// ------------------------------------------------- colpipe payload layout

/// Geometry of a (possibly damaged) ColumnarCodec payload: where each
/// pipeline blob starts and how long it claims to be. Lenient scan —
/// returns nullopt rather than throwing on buffers already out of shape.
struct ColpipeLayout {
  std::uint8_t mode = 0;
  std::size_t preamble_pos = 0;  ///< preamble-length varint (columnar mode)
  std::size_t ncols_pos = 0;     ///< column-count varint (columnar mode)
  std::vector<std::size_t> len_pos;   ///< each blob-length varint
  std::vector<std::size_t> blob_pos;  ///< each pipeline blob's first byte
  std::vector<std::size_t> blob_len;
};

std::optional<ColpipeLayout> scan_colpipe(const Bytes& packed) noexcept {
  if (packed.empty() || (packed[0] != 0x00 && packed[0] != 0x01)) {
    return std::nullopt;
  }
  ColpipeLayout layout;
  layout.mode = packed[0];
  if (layout.mode == 0x00) {  // opaque: one blob spanning the rest
    layout.blob_pos.push_back(1);
    layout.blob_len.push_back(packed.size() - 1);
    return layout;
  }
  layout.preamble_pos = 1;
  const auto preamble = scan_varint(packed, layout.preamble_pos);
  if (!preamble) return std::nullopt;
  std::size_t pos = layout.preamble_pos + preamble->length +
                    static_cast<std::size_t>(preamble->value);
  if (pos >= packed.size()) return std::nullopt;
  layout.ncols_pos = pos;
  const auto ncols = scan_varint(packed, pos);
  if (!ncols || ncols->value > 4096) return std::nullopt;
  pos += ncols->length;
  for (std::uint64_t i = 0; i < ncols->value; ++i) {
    layout.len_pos.push_back(pos);
    const auto len = scan_varint(packed, pos);
    if (!len) return std::nullopt;
    pos += len->length;
    if (packed.size() - pos < len->value) return std::nullopt;
    layout.blob_pos.push_back(pos);
    layout.blob_len.push_back(static_cast<std::size_t>(len->value));
    pos += static_cast<std::size_t>(len->value);
  }
  if (layout.blob_pos.empty()) return std::nullopt;
  return layout;
}

/// Extent of a pipeline header (stage-count varint + per-stage id/param
/// varints) starting at `at`; nullopt when it does not scan.
std::optional<std::size_t> scan_pipeline_header(const Bytes& buf,
                                                std::size_t at) noexcept {
  const auto count = scan_varint(buf, at);
  if (!count || count->value > 64) return std::nullopt;
  std::size_t pos = at + count->length;
  for (std::uint64_t i = 0; i < count->value; ++i) {
    const auto id = scan_varint(buf, pos);
    if (!id) return std::nullopt;
    pos += id->length;
    const auto param = scan_varint(buf, pos);
    if (!param) return std::nullopt;
    pos += param->length;
  }
  return pos - at;  // header length, CRC excluded
}

/// Recompute the 4-byte pipeline-header CRC at `at` after a field edit, so
/// the mutation reaches the stage decoders behind the gate.
void fix_pipeline_crc(Bytes& buf, std::size_t at) {
  const auto header_len = scan_pipeline_header(buf, at);
  if (!header_len || buf.size() - at < *header_len + 4) return;
  const std::uint32_t crc = crc32(ByteView(buf).subspan(at, *header_len));
  for (unsigned shift = 0; shift < 32; shift += 8) {
    buf[at + *header_len + (shift / 8)] =
        static_cast<std::uint8_t>(crc >> shift);
  }
}

}  // namespace

Bytes mutate_colpipe(const Bytes& packed, Rng& rng) {
  const auto layout = scan_colpipe(packed);
  if (!layout) return mutate(packed, rng);
  Bytes out = packed;
  const std::size_t pick = rng.below(layout->blob_pos.size());
  const std::size_t blob = layout->blob_pos[pick];
  switch (rng.below(8)) {
    case 0:  // mode byte: the other mode, or an unknown one
      out[0] = rng.chance(0.5) ? static_cast<std::uint8_t>(1 - out[0])
                               : static_cast<std::uint8_t>(2 + rng.below(254));
      break;
    case 1:  // preamble-length varint (columnar) / stage count (opaque)
      out = mutate_varint_at(
          out, layout->mode == 0x01 ? layout->preamble_pos : blob, rng);
      break;
    case 2:  // column-count varint (columnar) / stage count (opaque)
      out = mutate_varint_at(
          out, layout->mode == 0x01 ? layout->ncols_pos : blob, rng);
      break;
    case 3:  // a blob-length varint (columnar only)
      if (layout->mode == 0x01) {
        out = mutate_varint_at(out, layout->len_pos[pick], rng);
        break;
      }
      [[fallthrough]];
    case 4: {  // forge a stage id — including ids no decoder knows
      const auto count = scan_varint(out, blob);
      if (!count || count->value == 0) {
        out = mutate_varint_at(out, blob, rng);
        break;
      }
      std::size_t pos = blob + count->length;
      const std::uint64_t target = rng.below(count->value);
      bool edited = false;
      for (std::uint64_t i = 0; i <= target && !edited; ++i) {
        const auto id = scan_varint(out, pos);
        if (!id) break;
        if (i == target) {
          static constexpr std::uint64_t kForgedIds[] = {0,  8,  9,  15,
                                                         20, 77, 200, 1u << 20};
          Bytes forged;
          append_varint(forged, kForgedIds[rng.below(std::size(kForgedIds))]);
          out.erase(out.begin() + static_cast<std::ptrdiff_t>(pos),
                    out.begin() + static_cast<std::ptrdiff_t>(pos + id->length));
          out.insert(out.begin() + static_cast<std::ptrdiff_t>(pos),
                     forged.begin(), forged.end());
          edited = true;
          break;
        }
        pos += id->length;
        const auto param = scan_varint(out, pos);
        if (!param) break;
        pos += param->length;
      }
      if (!edited) out = mutate_varint_at(out, blob, rng);
      break;
    }
    case 5: {  // a stage-param varint
      const auto count = scan_varint(out, blob);
      if (count && count->value > 0) {
        const auto id = scan_varint(out, blob + count->length);
        if (id) {
          out = mutate_varint_at(out, blob + count->length + id->length, rng);
          break;
        }
      }
      out = mutate_varint_at(out, blob, rng);
      break;
    }
    case 6: {  // a header-CRC byte
      const auto header_len = scan_pipeline_header(out, blob);
      if (header_len && out.size() - blob >= *header_len + 4) {
        out[blob + *header_len + rng.below(4)] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      } else {
        flip_random_bit(out, rng);
      }
      break;
    }
    case 7:  // a stage-payload byte, past the header
      if (blob < out.size()) {
        out[blob + rng.below(out.size() - blob)] ^=
            static_cast<std::uint8_t>(1u << rng.below(8));
      }
      break;
  }
  // Half the time, re-seal the pipeline header so the forged fields pass
  // the CRC gate and exercise make_stage / the stage decoders.
  if (rng.chance(0.5) && blob < out.size()) fix_pipeline_crc(out, blob);
  return out;
}

Bytes mutate_container(const Bytes& packed, Rng& rng) {
  if (packed.size() < 4 || !rng.chance(0.5)) return mutate(packed, rng);
  // Every built-in codec keeps its container bookkeeping (sizes, chunk
  // counts, tree descriptions) up front; aim there.
  Bytes out = packed;
  const std::size_t header = std::min<std::size_t>(out.size(), 16);
  const std::size_t at = rng.below(header);
  if (rng.chance(0.5)) {
    out[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
  } else {
    out = mutate_varint_at(out, at, rng);
  }
  return out;
}

int fuzz_iterations(int fallback) noexcept {
  const char* env = std::getenv("ACEX_FUZZ_ITERS");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(env, &end, 10);
  if (end == nullptr || *end != '\0' || parsed <= 0 || parsed > 1000000000L) {
    return fallback;
  }
  return static_cast<int>(parsed);
}

}  // namespace acex::qa
