#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "compress/codec.hpp"
#include "util/bytes.hpp"

namespace acex {

/// §2.4 Burrows–Wheeler codec, with the paper's chunked adaptation:
///
///   1. the input is split into fixed-size chunks;
///   2. each chunk independently goes through BWT -> move-to-front ->
///      capped run-length coding (whose output provably never contains
///      byte 255);
///   3. each chunk's header (original length, BWT primary index, both in a
///      255-free base-128 encoding) and payload are terminated by the
///      sentinel byte 255;
///   4. **all chunks are compressed jointly by a single Huffman code**, whose
///      self-synchronizing property lets a receiver that starts reading
///      mid-stream recover every chunk after the first sentinel it finds
///      (`recover_from_bit`).
///
/// Wire format: varint original size, mode byte (0 stored / 1 compressed),
/// then either raw bytes or a HuffmanCodec payload of the staged chunk
/// stream described above.
class BurrowsWheelerCodec final : public Codec {
 public:
  /// `chunk_size` trades compression (bigger is better) against transform
  /// time and recovery granularity. Must be in [64, 2^20].
  explicit BurrowsWheelerCodec(std::size_t chunk_size = 128 * 1024);

  MethodId id() const noexcept override { return MethodId::kBurrowsWheeler; }
  Bytes compress(ByteView input) override;
  Bytes decompress(ByteView input) override;

  /// Mid-stream recovery (§2.4: "we can decode the compressed file from any
  /// arbitrary point"). Starts Huffman-decoding the *compressed* payload of
  /// a kModeCompressed frame at `bit_offset`, discards bytes until a chunk
  /// sentinel is plausible, and returns every complete chunk that decodes
  /// cleanly after it. Returns an empty vector when nothing downstream of
  /// the offset could be recovered. Best effort: the canonical Huffman code
  /// usually resynchronizes within a few symbols.
  std::vector<Bytes> recover_from_bit(ByteView compressed,
                                      std::uint64_t bit_offset);

  std::size_t chunk_size() const noexcept { return chunk_size_; }

 private:
  Bytes stage_chunks(ByteView input) const;

  std::size_t chunk_size_;
};

}  // namespace acex
