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
/// cyclic string), each round a counting (radix) sort: O(n log n) —
/// deliberately the "slow, strong" method of the paper; its cost is what
/// Figs. 3/4 measure.
Transformed forward(ByteView block);

/// Inverse BWT via LF-mapping (counting sort + backwards walk), O(n).
/// Throws DecodeError if `primary` is out of range.
Bytes inverse(ByteView last_column, std::uint32_t primary);

}  // namespace acex::bwt
