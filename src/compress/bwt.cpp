#include "compress/bwt.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <vector>

#include "util/error.hpp"

namespace acex::bwt {

Transformed forward(ByteView block) {
  const std::size_t n = block.size();
  Transformed result;
  if (n == 0) return result;
  if (n == 1) {
    result.last_column.assign(block.begin(), block.end());
    result.primary = 0;
    return result;
  }

  // Prefix doubling over cyclic rotations: after the round with shift k,
  // `idx` lists rotations sorted by their first 2k characters and rank[i]
  // is the row where rotation i's group of equal prefixes starts. Ranks
  // are bucket heads, so no round needs a counting pass. O(n log n).
  const auto n32 = static_cast<std::uint32_t>(n);
  std::vector<std::uint32_t> idx(n), out(n), rank(n), head(n);
  std::array<std::uint32_t, 257> counts{};
  for (const auto c : block) ++counts[c + 1];
  std::uint32_t groups = 256 - std::count(counts.begin() + 1, counts.end(), 0u);
  std::partial_sum(counts.begin(), counts.end(), counts.begin());
  for (std::uint32_t i = 0; i < n32; ++i) rank[i] = counts[block[i]];
  std::iota(head.begin(), head.end(), 0u);
  for (std::uint32_t i = 0; i < n32; ++i) idx[head[rank[i]]++] = i;

  // A round sorts by (rank[i], rank[i + k]): dealing i - k into its group
  // in `idx` order keeps each group sorted by the second key. Each group
  // starts where the original radix-pass sort's counting sort put it, so
  // `idx`, ties included, is that sort's after every round.
  for (std::uint32_t k = 1; groups < n && k < n; k <<= 1) {
    std::iota(head.begin(), head.end(), 0u);
    for (const std::uint32_t i : idx) {
      const std::uint32_t s = i >= k ? i - k : i + n32 - k;
      out[head[rank[s]]++] = s;
    }
    groups = 0;
    std::uint32_t start = 0, first = n32, second = n32;
    for (std::uint32_t row = 0; row < n32; ++row) {
      const std::uint32_t s = out[row];
      const std::uint32_t t = s < n32 - k ? s + k : s - (n32 - k);
      if (rank[s] != first || rank[t] != second) {
        start = row;
        ++groups;
        first = rank[s];
        second = rank[t];
      }
      head[s] = start;
    }
    rank.swap(head);
    idx.swap(out);
  }

  result.last_column.resize(n);
  for (std::size_t row = 0; row < n; ++row) {
    const std::size_t start = idx[row];
    result.last_column[row] = block[start == 0 ? n - 1 : start - 1];
    if (start == 0) result.primary = static_cast<std::uint32_t>(row);
  }
  return result;
}

Bytes inverse(ByteView last_column, std::uint32_t primary) {
  const std::size_t n = last_column.size();
  if (n == 0) return {};
  if (primary >= n) throw DecodeError("bwt: primary index out of range");

  // C[c] = number of characters in L strictly smaller than c;
  // occ[i] = rank of L[i] among equal characters in L[0..i].
  std::array<std::uint32_t, 256> counts{};
  for (const auto c : last_column) ++counts[c];
  std::array<std::uint32_t, 256> before{};
  std::uint32_t sum = 0;
  for (unsigned c = 0; c < 256; ++c) {
    before[c] = sum;
    sum += counts[c];
  }
  std::vector<std::uint32_t> lf(n);
  std::array<std::uint32_t, 256> seen{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t c = last_column[i];
    lf[i] = before[c] + seen[c]++;
  }

  Bytes out(n);
  std::uint32_t row = primary;
  for (std::size_t k = n; k-- > 0;) {
    out[k] = last_column[row];
    row = lf[row];
  }
  return out;
}

}  // namespace acex::bwt
