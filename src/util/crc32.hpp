#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace acex {

/// Incremental CRC-32 (IEEE 802.3 polynomial, the same one zlib/gzip use).
/// Frames append a CRC so receivers detect corruption introduced anywhere in
/// the compress -> transport -> decompress path.
///
/// Two kernels compute the same value: a portable slicing-by-8 loop, and on
/// x86-64 CPUs with PCLMULQDQ a carry-less-multiply folding kernel that
/// `update` picks once from CPUID for inputs of 64 bytes or more.
class Crc32 {
 public:
  /// Fold `data` into the running checksum.
  void update(ByteView data) noexcept;

  /// Final checksum value for everything updated so far.
  std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

  /// Reset to the empty-input state.
  void reset() noexcept { state_ = 0xFFFFFFFFu; }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

/// One-shot convenience over Crc32.
std::uint32_t crc32(ByteView data) noexcept;

namespace detail {
/// The portable slicing-by-8 kernel: advances a raw CRC register (the
/// pre-inverted state Crc32 keeps, 0xFFFFFFFF for empty input) over `data`.
/// It is the reference on every platform; declared here so tests can pin it
/// on hosts where `Crc32::update` dispatches to the folding kernel.
std::uint32_t crc32_portable(std::uint32_t state, ByteView data) noexcept;
}  // namespace detail

}  // namespace acex
