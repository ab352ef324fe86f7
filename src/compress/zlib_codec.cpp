#include "compress/zlib_codec.hpp"

#include "util/error.hpp"
#include "util/varint.hpp"

#ifdef ACEX_HAVE_ZLIB
#include <zlib.h>
#endif

namespace acex {

bool zlib_available() noexcept {
#ifdef ACEX_HAVE_ZLIB
  return true;
#else
  return false;
#endif
}

#ifdef ACEX_HAVE_ZLIB

ZlibCodec::ZlibCodec(int level) : level_(level) {
  if (level < 1 || level > 9) throw ConfigError("zlib level must be 1..9");
}

Bytes ZlibCodec::compress(ByteView input) {
  Bytes out;
  put_varint(out, input.size());
  if (input.empty()) return out;

  uLongf bound = compressBound(static_cast<uLong>(input.size()));
  const std::size_t header = out.size();
  out.resize(header + bound);
  const int rc =
      compress2(out.data() + header, &bound, input.data(),
                static_cast<uLong>(input.size()), level_);
  if (rc != Z_OK) throw Error("zlib compress2 failed");
  out.resize(header + bound);
  return out;
}

Bytes ZlibCodec::decompress(ByteView input) {
  std::size_t pos = 0;
  const std::uint64_t size = get_varint(input, &pos);
  if (size == 0) return {};
  // Deflate expands at most 1032:1, so a header claiming more than that
  // over the stream behind it is corrupt, and must not size an allocation.
  if (size / 1032 > input.size() - pos) {
    throw DecodeError("zlib: implausible original size");
  }
  Bytes out(size);
  uLongf out_len = static_cast<uLongf>(size);
  const int rc = uncompress(out.data(), &out_len, input.data() + pos,
                            static_cast<uLong>(input.size() - pos));
  if (rc != Z_OK || out_len != size) {
    throw DecodeError("zlib: corrupt stream");
  }
  return out;
}

#endif  // ACEX_HAVE_ZLIB

}  // namespace acex
