#pragma once

#include <cstdint>
#include <cstddef>

#include "util/bytes.hpp"

namespace acex::bwt {

/// Result of the forward Burrows–Wheeler transform: the last column of the
/// sorted rotation matrix plus the row index of the original string, which
/// the inverse transform needs to re-anchor.
struct Transformed {
  Bytes last_column;
  std::uint32_t primary = 0;
};

/// Forward BWT over all cyclic rotations of `block` (§2.4 step 1).
///
/// Rotation order is established with prefix doubling (Manber–Myers on the
/// cyclic string): each round deals rotations into bucket heads by the
/// rank of the rotation k characters on, O(n log n) in all. It is still
/// the paper's "slow, strong" method and most of what Figs. 3/4 measure
/// for BW, though on this stack it reduces faster than LZ (EXPERIMENTS.md,
/// Fig. 4). Equal rotations of a periodic block keep the order the
/// original radix-pass sort gave them, so `primary` is the row the frame
/// format has always recorded; tests/test_bwt.cpp pins it against that
/// sort.
Transformed forward(ByteView block);

/// Inverse BWT via LF-mapping (counting sort + backwards walk), O(n).
/// Throws DecodeError if `primary` is out of range.
Bytes inverse(ByteView last_column, std::uint32_t primary);

}  // namespace acex::bwt
