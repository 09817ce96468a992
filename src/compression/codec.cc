#include "compression/codec.h"

#include <algorithm>
#include <cstring>

#include "common/hash.h"
#include "common/string_type.h"

namespace ssagg {

namespace {

void AppendBytes(std::vector<data_t> &out, const void *data, idx_t bytes) {
  if (bytes == 0) {
    return;  // `data` may be null (e.g. an empty heap) — don't touch it
  }
  auto *src = static_cast<const data_t *>(data);
  out.insert(out.end(), src, src + bytes);
}

template <typename T>
void AppendValue(std::vector<data_t> &out, T value) {
  AppendBytes(out, &value, sizeof(T));
}

template <typename T>
T ReadValue(const_data_ptr_t &cursor) {
  T value;
  std::memcpy(&value, cursor, sizeof(T));
  cursor += sizeof(T);
  return value;
}

/// Loads integer values (int32/int64/date) widened to int64.
void LoadIntegers(const Vector &input, idx_t count, idx_t width,
                  std::vector<int64_t> &values) {
  values.resize(count);
  for (idx_t i = 0; i < count; i++) {
    if (!input.validity().RowIsValid(i)) {
      values[i] = 0;
      continue;
    }
    if (width == 4) {
      int32_t v;
      std::memcpy(&v, input.data() + i * 4, 4);
      values[i] = v;
    } else {
      std::memcpy(&values[i], input.data() + i * 8, 8);
    }
  }
}

idx_t BitsNeeded(uint64_t range) {
  idx_t bits = 0;
  while (range > 0) {
    bits++;
    range >>= 1;
  }
  return bits;
}

/// Mask of the `bits` (0..64) low bits of a word.
uint64_t LowBitsMask(idx_t bits) {
  return bits == 64 ? ~uint64_t(0) : (uint64_t(1) << bits) - 1;
}

/// Appends the `bits` low bits of each of `count` deltas as one LSB-first bit
/// stream of ceil(count * bits / 8) bytes, zero-padded in the last byte.
/// Deltas are gathered into a 64-bit accumulator that is stored a word at a
/// time.
void PackBits(const uint64_t *deltas, idx_t count, idx_t bits,
              std::vector<data_t> &out) {
  idx_t start = out.size();
  out.resize(start + (count * bits + 7) / 8);
  if (bits == 0) {
    return;
  }
  const uint64_t mask = LowBitsMask(bits);
  data_ptr_t dst = out.data() + start;
  uint64_t word = 0;
  idx_t filled = 0;  // bits of `word` in use, always < 64 between values
  for (idx_t i = 0; i < count; i++) {
    uint64_t delta = deltas[i] & mask;
    word |= delta << filled;
    filled += bits;
    if (filled >= 64) {
      std::memcpy(dst, &word, 8);
      dst += 8;
      filled -= 64;
      // The high `filled` bits of the delta did not fit; `filled` < bits
      // here, so the shift is in [1, 63].
      word = filled == 0 ? 0 : delta >> (bits - filled);
    }
  }
  if (filled > 0) {
    std::memcpy(dst, &word, (filled + 7) / 8);
  }
}

/// Reads one `bits`-wide value at bit offset `bit_pos`, touching only the
/// bytes that hold its bits.
uint64_t UnpackOne(const_data_ptr_t data, idx_t bit_pos, idx_t bits) {
  const_data_ptr_t p = data + (bit_pos >> 3);
  idx_t shift = bit_pos & 7;
  uint64_t value = *p++ >> shift;
  for (idx_t got = 8 - shift; got < bits; got += 8) {
    value |= uint64_t(*p++) << got;
  }
  return value & LowBitsMask(bits);
}

/// Decodes `count` values of `bits` width from the LSB-first bit stream at
/// `data` (as written by PackBits) and stores base + value, cast to T, as
/// `count` consecutive (possibly unaligned) T values at `out`. Requires
/// count * bits <= size * 8. Widths up to 56 bits use one unaligned 64-bit
/// load per value while 8 bytes remain in [data, data + size); the last
/// values and wider widths take the bounded per-byte path. Never reads
/// outside [data, data + size).
template <typename T>
void UnpackBits(const_data_ptr_t data, idx_t size, idx_t count, idx_t bits,
                uint64_t base, data_ptr_t out) {
  SSAGG_DASSERT(bits <= 64 && count * bits <= size * 8);
  auto store = [out](idx_t i, uint64_t value) {
    auto v = static_cast<T>(value);
    std::memcpy(out + i * sizeof(T), &v, sizeof(T));
  };
  if (bits == 0) {
    for (idx_t i = 0; i < count; i++) {
      store(i, base);
    }
    return;
  }
  idx_t fast = 0;
  if (bits <= 56 && size >= 8) {
    // Value i loads bytes [i * bits / 8, i * bits / 8 + 8).
    fast = std::min(count, ((size - 7) * 8 - 1) / bits + 1);
  }
  const uint64_t mask = LowBitsMask(bits);
  idx_t bit_pos = 0;
  for (idx_t i = 0; i < fast; i++, bit_pos += bits) {
    uint64_t word;
    std::memcpy(&word, data + (bit_pos >> 3), 8);
    store(i, base + ((word >> (bit_pos & 7)) & mask));
  }
  for (idx_t i = fast; i < count; i++, bit_pos += bits) {
    store(i, base + UnpackOne(data, bit_pos, bits));
  }
}

struct RleRun {
  int64_t value;
  uint32_t length;
};

std::vector<RleRun> BuildRuns(const std::vector<int64_t> &values) {
  std::vector<RleRun> runs;
  for (int64_t v : values) {
    if (!runs.empty() && runs.back().value == v &&
        runs.back().length < ~uint32_t(0)) {
      runs.back().length++;
    } else {
      runs.push_back(RleRun{v, 1});
    }
  }
  return runs;
}

}  // namespace

const char *CodecName(Codec codec) {
  switch (codec) {
    case Codec::kPlain:
      return "PLAIN";
    case Codec::kForBitpack:
      return "FOR_BITPACK";
    case Codec::kRle:
      return "RLE";
    case Codec::kStringPlain:
      return "STRING_PLAIN";
  }
  return "UNKNOWN";
}

Status CompressSegment(const Vector &input, idx_t count,
                       std::vector<data_t> &out) {
  SSAGG_ASSERT(count > 0);
  const idx_t width = input.width();
  // Header: codec placeholder, count, validity bits.
  idx_t codec_pos = out.size();
  out.push_back(static_cast<data_t>(Codec::kPlain));
  AppendValue<uint32_t>(out, static_cast<uint32_t>(count));
  idx_t validity_pos = out.size();
  out.resize(out.size() + (count + 7) / 8, 0);
  for (idx_t i = 0; i < count; i++) {
    if (input.validity().RowIsValid(i)) {
      out[validity_pos + (i >> 3)] |= static_cast<data_t>(1 << (i & 7));
    }
  }

  if (input.type() == LogicalTypeId::kVarchar) {
    out[codec_pos] = static_cast<data_t>(Codec::kStringPlain);
    // offsets (count + 1) then chars.
    uint32_t total = 0;
    idx_t offsets_pos = out.size();
    out.resize(out.size() + 4 * (count + 1));
    std::vector<data_t> chars;
    for (idx_t i = 0; i < count; i++) {
      std::memcpy(out.data() + offsets_pos + 4 * i, &total, 4);
      if (input.validity().RowIsValid(i)) {
        string_t s = input.Values<string_t>()[i];
        AppendBytes(chars, s.data(), s.size());
        total += s.size();
      }
    }
    std::memcpy(out.data() + offsets_pos + 4 * count, &total, 4);
    AppendBytes(out, chars.data(), chars.size());
    return Status::OK();
  }

  if (input.type() == LogicalTypeId::kDouble ||
      input.type() == LogicalTypeId::kBoolean) {
    // Plain storage for doubles/booleans.
    AppendBytes(out, input.data(), count * width);
    return Status::OK();
  }

  // Integers: pick the smallest of plain / FoR-bitpack / RLE.
  std::vector<int64_t> values;
  LoadIntegers(input, count, width, values);
  int64_t min_v = values[0], max_v = values[0];
  for (int64_t v : values) {
    min_v = std::min(min_v, v);
    max_v = std::max(max_v, v);
  }
  // Unsigned subtraction: the frame may span the whole int64 range, where
  // max_v - min_v overflows as a signed operation.
  idx_t bits = BitsNeeded(static_cast<uint64_t>(max_v) -
                          static_cast<uint64_t>(min_v));
  idx_t bitpack_bytes = 9 + (count * bits + 7) / 8;
  auto runs = BuildRuns(values);
  idx_t rle_bytes = 4 + runs.size() * (width + 4);
  idx_t plain_bytes = count * width;

  if (rle_bytes < bitpack_bytes && rle_bytes < plain_bytes) {
    out[codec_pos] = static_cast<data_t>(Codec::kRle);
    AppendValue<uint32_t>(out, static_cast<uint32_t>(runs.size()));
    for (const auto &run : runs) {
      if (width == 4) {
        AppendValue<int32_t>(out, static_cast<int32_t>(run.value));
      } else {
        AppendValue<int64_t>(out, run.value);
      }
      AppendValue<uint32_t>(out, run.length);
    }
    return Status::OK();
  }
  if (bitpack_bytes < plain_bytes) {
    out[codec_pos] = static_cast<data_t>(Codec::kForBitpack);
    AppendValue<int64_t>(out, min_v);
    out.push_back(static_cast<data_t>(bits));
    std::vector<uint64_t> deltas(count);
    for (idx_t i = 0; i < count; i++) {
      deltas[i] =
          static_cast<uint64_t>(values[i]) - static_cast<uint64_t>(min_v);
    }
    PackBits(deltas.data(), count, bits, out);
    return Status::OK();
  }
  out[codec_pos] = static_cast<data_t>(Codec::kPlain);
  AppendBytes(out, input.data(), count * width);
  return Status::OK();
}

namespace {

bool IsIntegerType(LogicalTypeId type) {
  return type == LogicalTypeId::kInt32 || type == LogicalTypeId::kInt64 ||
         type == LogicalTypeId::kDate;
}

/// Marks the NULL rows of a segment's validity bitmap (set bit = valid) in
/// `out`, which starts all-valid. Segments without NULLs cost one scan of
/// the bitmap bytes.
void DecodeValidity(const_data_ptr_t bitmap, idx_t count, Vector &out) {
  idx_t full_bytes = count / 8;
  idx_t tail_bits = count % 8;
  uint8_t tail_mask = static_cast<uint8_t>((1u << tail_bits) - 1);
  bool all_valid =
      tail_bits == 0 || (bitmap[full_bytes] & tail_mask) == tail_mask;
  for (idx_t i = 0; i < full_bytes && all_valid; i++) {
    all_valid = bitmap[i] == 0xFF;
  }
  if (all_valid) {
    return;
  }
  for (idx_t row = 0; row < count; row++) {
    if (!((bitmap[row >> 3] >> (row & 7)) & 1)) {
      out.validity().SetInvalid(row);
    }
  }
}

template <typename T>
Status DecodeRle(const_data_ptr_t cursor, const_data_ptr_t end, idx_t count,
                 T *out) {
  if (end - cursor < 4) {
    return Status::IOError("rle run count out of bounds");
  }
  auto nruns = ReadValue<uint32_t>(cursor);
  constexpr idx_t kRunBytes = sizeof(T) + 4;
  if (nruns > static_cast<idx_t>(end - cursor) / kRunBytes) {
    return Status::IOError("rle payload out of bounds");
  }
  idx_t i = 0;
  for (uint32_t r = 0; r < nruns; r++) {
    auto value = ReadValue<T>(cursor);
    auto run = ReadValue<uint32_t>(cursor);
    idx_t n = std::min<idx_t>(run, count - i);
    std::fill(out + i, out + i + n, value);
    i += n;
  }
  if (i != count) {
    return Status::IOError("rle run count mismatch");
  }
  return Status::OK();
}

Status DecodeStrings(const_data_ptr_t cursor, const_data_ptr_t end,
                     idx_t count, Vector &out) {
  if (static_cast<idx_t>(end - cursor) < 4 * (count + 1)) {
    return Status::IOError("string offsets out of bounds");
  }
  const_data_ptr_t offsets = cursor;
  cursor += 4 * (count + 1);
  uint32_t total;
  std::memcpy(&total, offsets + 4 * count, 4);
  if (static_cast<idx_t>(end - cursor) < total) {
    return Status::IOError("string chars out of bounds");
  }
  const char *chars = reinterpret_cast<const char *>(cursor);
  // Non-inlined strings point into one copy of the character data in the
  // vector's heap, made on the first string that needs it.
  const char *copy = nullptr;
  auto *strings = out.Values<string_t>();
  for (idx_t i = 0; i < count; i++) {
    uint32_t begin, finish;
    std::memcpy(&begin, offsets + 4 * i, 4);
    std::memcpy(&finish, offsets + 4 * (i + 1), 4);
    if (begin > finish || finish > total) {
      return Status::IOError("string offsets out of order");
    }
    uint32_t len = finish - begin;
    if (len <= string_t::kInlineLength) {
      strings[i] = string_t(chars + begin, len);
      continue;
    }
    if (copy == nullptr) {
      char *dest = out.heap().Allocate(total);
      std::memcpy(dest, chars, total);
      copy = dest;
    }
    strings[i] = string_t(copy + begin, len);
  }
  return Status::OK();
}

}  // namespace

Status DecodeSegment(const_data_ptr_t data, idx_t size, Vector &out,
                     idx_t *count) {
  const_data_ptr_t cursor = data;
  const_data_ptr_t end = data + size;
  if (size < 5) {
    return Status::IOError("segment too small");
  }
  auto codec_id = ReadValue<uint8_t>(cursor);
  if (codec_id > static_cast<uint8_t>(Codec::kStringPlain)) {
    return Status::IOError("unknown codec");
  }
  auto codec = static_cast<Codec>(codec_id);
  idx_t rows = ReadValue<uint32_t>(cursor);
  if (rows > kVectorSize) {
    return Status::IOError("segment row count " + std::to_string(rows) +
                           " exceeds the vector size");
  }
  idx_t validity_bytes = (rows + 7) / 8;
  if (static_cast<idx_t>(end - cursor) < validity_bytes) {
    return Status::IOError("segment validity out of bounds");
  }
  out.Reset();
  DecodeValidity(cursor, rows, out);
  cursor += validity_bytes;
  const LogicalTypeId type = out.type();
  const idx_t width = out.width();
  const idx_t remaining = end - cursor;
  *count = rows;

  switch (codec) {
    case Codec::kPlain: {
      if (type == LogicalTypeId::kVarchar) {
        break;
      }
      if (remaining < rows * width) {
        return Status::IOError("plain payload out of bounds");
      }
      if (rows != 0) {  // a zero-count segment may have no payload pointer
        std::memcpy(out.data(), cursor, rows * width);
      }
      return Status::OK();
    }
    case Codec::kForBitpack: {
      if (!IsIntegerType(type)) {
        break;
      }
      if (remaining < 9) {
        return Status::IOError("bitpack header out of bounds");
      }
      auto base = static_cast<uint64_t>(ReadValue<int64_t>(cursor));
      idx_t bits = ReadValue<uint8_t>(cursor);
      if (bits > 64) {
        return Status::IOError("bitpack width " + std::to_string(bits) +
                               " exceeds 64 bits");
      }
      idx_t payload = end - cursor;
      if (payload < (rows * bits + 7) / 8) {
        return Status::IOError("bitpack payload out of bounds");
      }
      if (width == 4) {
        UnpackBits<int32_t>(cursor, payload, rows, bits, base, out.data());
      } else {
        UnpackBits<int64_t>(cursor, payload, rows, bits, base, out.data());
      }
      return Status::OK();
    }
    case Codec::kRle: {
      if (!IsIntegerType(type)) {
        break;
      }
      return width == 4 ? DecodeRle(cursor, end, rows, out.Values<int32_t>())
                        : DecodeRle(cursor, end, rows, out.Values<int64_t>());
    }
    case Codec::kStringPlain: {
      if (type != LogicalTypeId::kVarchar) {
        break;
      }
      return DecodeStrings(cursor, end, rows, out);
    }
  }
  return Status::IOError(std::string("codec ") + CodecName(codec) +
                         " does not match column type " + TypeName(type));
}

//===----------------------------------------------------------------------===//
// Spill frames
//===----------------------------------------------------------------------===//

namespace {

/// Checksum of a frame payload: the repo-wide hash, truncated to the 32 bits
/// stored in the header.
uint32_t FrameChecksum(const_data_ptr_t data, idx_t size) {
  return static_cast<uint32_t>(
      HashBytes(reinterpret_cast<const char *>(data), size));
}

// Byte-RLE token stream: control byte c, then
//   c < 128   : c + 1 literal bytes follow;
//   c >= 128  : the next byte repeats (c - 128 + 3) times (runs of 3..130).
constexpr idx_t kRleMaxRun = 130;
constexpr idx_t kRleMaxLiteral = 128;

void ByteRleEncode(const_data_ptr_t data, idx_t size,
                   std::vector<data_t> &out) {
  idx_t i = 0;
  idx_t literal_start = 0;
  auto flush_literals = [&](idx_t end) {
    while (literal_start < end) {
      idx_t n = std::min<idx_t>(end - literal_start, kRleMaxLiteral);
      out.push_back(static_cast<data_t>(n - 1));
      AppendBytes(out, data + literal_start, n);
      literal_start += n;
    }
  };
  while (i < size) {
    idx_t run = 1;
    while (i + run < size && run < kRleMaxRun && data[i + run] == data[i]) {
      run++;
    }
    if (run >= 3) {
      flush_literals(i);
      out.push_back(static_cast<data_t>(128 + run - 3));
      out.push_back(data[i]);
      i += run;
      literal_start = i;
    } else {
      i += run;
    }
  }
  flush_literals(size);
}

Status ByteRleDecode(const_data_ptr_t data, idx_t size, data_ptr_t out,
                     idx_t out_size) {
  idx_t in = 0;
  idx_t pos = 0;
  while (in < size) {
    data_t control = data[in++];
    if (control < 128) {
      idx_t n = static_cast<idx_t>(control) + 1;
      if (in + n > size || pos + n > out_size) {
        return Status::IOError("corrupt spill frame: RLE literal out of "
                               "bounds");
      }
      std::memcpy(out + pos, data + in, n);
      in += n;
      pos += n;
    } else {
      idx_t n = static_cast<idx_t>(control) - 128 + 3;
      if (in >= size || pos + n > out_size) {
        return Status::IOError("corrupt spill frame: RLE run out of bounds");
      }
      std::memset(out + pos, data[in++], n);
      pos += n;
    }
  }
  if (pos != out_size) {
    return Status::IOError("corrupt spill frame: RLE decoded short");
  }
  return Status::OK();
}

// Word-FoR: the payload is cut into blocks of up to 1024 little-endian
// 64-bit words; each block stores min (8 bytes), bit width (1 byte) and the
// bit-packed deltas. Only applicable when the raw size is word-aligned.
constexpr idx_t kForBlockWords = 1024;

void WordForEncode(const_data_ptr_t data, idx_t size,
                   std::vector<data_t> &out) {
  idx_t words = size / 8;
  std::vector<uint64_t> deltas;
  for (idx_t start = 0; start < words; start += kForBlockWords) {
    idx_t n = std::min(kForBlockWords, words - start);
    uint64_t min_value = ~uint64_t(0);
    uint64_t max_value = 0;
    for (idx_t i = 0; i < n; i++) {
      uint64_t v;
      std::memcpy(&v, data + (start + i) * 8, 8);
      min_value = std::min(min_value, v);
      max_value = std::max(max_value, v);
    }
    idx_t bits = BitsNeeded(max_value - min_value);
    AppendValue<uint64_t>(out, min_value);
    out.push_back(static_cast<data_t>(bits));
    if (bits >= 64) {
      AppendBytes(out, data + start * 8, n * 8);
      continue;
    }
    deltas.resize(n);
    for (idx_t i = 0; i < n; i++) {
      uint64_t v;
      std::memcpy(&v, data + (start + i) * 8, 8);
      deltas[i] = v - min_value;
    }
    PackBits(deltas.data(), n, bits, out);
  }
}

Status WordForDecode(const_data_ptr_t data, idx_t size, data_ptr_t out,
                     idx_t out_size) {
  if (out_size % 8 != 0) {
    return Status::IOError("corrupt spill frame: FoR output not word sized");
  }
  idx_t words = out_size / 8;
  idx_t in = 0;
  for (idx_t start = 0; start < words; start += kForBlockWords) {
    idx_t n = std::min(kForBlockWords, words - start);
    if (in + 9 > size) {
      return Status::IOError("corrupt spill frame: FoR block header "
                             "truncated");
    }
    const_data_ptr_t cursor = data + in;
    uint64_t min_value = ReadValue<uint64_t>(cursor);
    idx_t bits = data[in + 8];
    in += 9;
    if (bits >= 64) {
      if (in + n * 8 > size) {
        return Status::IOError("corrupt spill frame: FoR raw block "
                               "truncated");
      }
      std::memcpy(out + start * 8, data + in, n * 8);
      in += n * 8;
      continue;
    }
    idx_t packed = (n * bits + 7) / 8;
    if (in + packed > size) {
      return Status::IOError("corrupt spill frame: FoR packed block "
                             "truncated");
    }
    UnpackBits<uint64_t>(data + in, size - in, n, bits, min_value,
                         out + start * 8);
    in += packed;
  }
  if (in != size) {
    return Status::IOError("corrupt spill frame: FoR trailing bytes");
  }
  return Status::OK();
}

// Greedy byte-oriented LZ77. Token stream: each sequence is
//   token byte: high nibble = literal count, low nibble = match length - 4
//               (15 in either nibble chains extra 255-capped length bytes),
//   literal bytes, then a 2-byte little-endian match offset (1..65535).
// The final sequence carries literals only (input ends after them). Spilled
// pages are rows at a fixed stride, so back-references at small multiples of
// the row width pick up the repeated key/aggregate structure that the
// value-oriented codecs above cannot see.
constexpr idx_t kLzMinMatch = 4;
constexpr idx_t kLzWindow = 65535;
constexpr idx_t kLzHashBits = 13;

uint32_t LzHash(const_data_ptr_t p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kLzHashBits);
}

void LzAppendLength(std::vector<data_t> &out, idx_t len) {
  while (len >= 255) {
    out.push_back(255);
    len -= 255;
  }
  out.push_back(static_cast<data_t>(len));
}

/// Encodes into `out`; gives up (returns false, out unspecified) as soon as
/// the encoding exceeds the raw size, so incompressible pages cost one pass.
bool LzEncode(const_data_ptr_t data, idx_t size, std::vector<data_t> &out) {
  if (size < kLzMinMatch + 1) {
    return false;
  }
  std::vector<uint32_t> table(idx_t(1) << kLzHashBits, 0);
  // Position 0 is the table's "empty" sentinel; start matching at 1.
  idx_t pos = 1;
  idx_t literal_start = 0;
  const idx_t match_limit = size - kLzMinMatch;
  auto emit = [&](idx_t match_len, idx_t offset) {
    idx_t literals = pos - literal_start;
    idx_t lit_nibble = std::min<idx_t>(literals, 15);
    idx_t match_nibble = std::min<idx_t>(match_len - kLzMinMatch, 15);
    out.push_back(static_cast<data_t>((lit_nibble << 4) | match_nibble));
    if (lit_nibble == 15) {
      LzAppendLength(out, literals - 15);
    }
    AppendBytes(out, data + literal_start, literals);
    AppendValue<uint16_t>(out, static_cast<uint16_t>(offset));
    if (match_nibble == 15) {
      LzAppendLength(out, match_len - kLzMinMatch - 15);
    }
  };
  while (pos <= match_limit) {
    uint32_t hash = LzHash(data + pos);
    idx_t candidate = table[hash];
    table[hash] = static_cast<uint32_t>(pos);
    if (candidate != 0 && pos - candidate <= kLzWindow &&
        std::memcmp(data + candidate, data + pos, kLzMinMatch) == 0) {
      idx_t len = kLzMinMatch;
      while (pos + len < size && data[candidate + len] == data[pos + len]) {
        len++;
      }
      emit(len, pos - candidate);
      pos += len;
      literal_start = pos;
      if (out.size() >= size) {
        return false;
      }
    } else {
      pos++;
    }
  }
  // Tail: the remaining bytes are literals of a match-less final sequence.
  idx_t literals = size - literal_start;
  idx_t lit_nibble = std::min<idx_t>(literals, 15);
  out.push_back(static_cast<data_t>(lit_nibble << 4));
  if (lit_nibble == 15) {
    LzAppendLength(out, literals - 15);
  }
  AppendBytes(out, data + literal_start, literals);
  return out.size() < size;
}

Status LzReadLength(const_data_ptr_t data, idx_t size, idx_t &in,
                    idx_t &len) {
  data_t byte;
  do {
    if (in >= size) {
      return Status::IOError("corrupt spill frame: LZ length truncated");
    }
    byte = data[in++];
    len += byte;
  } while (byte == 255);
  return Status::OK();
}

Status LzDecode(const_data_ptr_t data, idx_t size, data_ptr_t out,
                idx_t out_size) {
  idx_t in = 0;
  idx_t pos = 0;
  while (in < size) {
    data_t token = data[in++];
    idx_t literals = token >> 4;
    if (literals == 15) {
      SSAGG_RETURN_NOT_OK(LzReadLength(data, size, in, literals));
    }
    if (in + literals > size || pos + literals > out_size) {
      return Status::IOError("corrupt spill frame: LZ literals out of "
                             "bounds");
    }
    std::memcpy(out + pos, data + in, literals);
    in += literals;
    pos += literals;
    if (in == size) {
      break;  // final sequence: literals only
    }
    if (in + 2 > size) {
      return Status::IOError("corrupt spill frame: LZ offset truncated");
    }
    idx_t offset = static_cast<idx_t>(data[in]) |
                   (static_cast<idx_t>(data[in + 1]) << 8);
    in += 2;
    idx_t match_len = (token & 0xF);
    if (match_len == 15) {
      SSAGG_RETURN_NOT_OK(LzReadLength(data, size, in, match_len));
    }
    match_len += kLzMinMatch;
    if (offset == 0 || offset > pos || pos + match_len > out_size) {
      return Status::IOError("corrupt spill frame: LZ match out of bounds");
    }
    // Byte-wise copy: matches may overlap their own output (offset < len).
    for (idx_t i = 0; i < match_len; i++) {
      out[pos + i] = out[pos + i - offset];
    }
    pos += match_len;
  }
  if (pos != out_size) {
    return Status::IOError("corrupt spill frame: LZ decoded short");
  }
  return Status::OK();
}

void WriteFrameHeader(std::vector<data_t> &out, SpillCodec codec,
                      idx_t raw_len, idx_t comp_len, uint32_t checksum) {
  AppendValue<uint32_t>(out, SpillFrameHeader::kMagic);
  out.push_back(static_cast<data_t>(codec));
  out.push_back(0);  // flags
  AppendValue<uint16_t>(out, 0);
  AppendValue<uint32_t>(out, static_cast<uint32_t>(raw_len));
  AppendValue<uint32_t>(out, static_cast<uint32_t>(comp_len));
  AppendValue<uint32_t>(out, checksum);
}

}  // namespace

void CompressSpillFrame(const_data_ptr_t data, idx_t size,
                        std::vector<data_t> &out) {
  out.clear();
  SpillCodec codec = SpillCodec::kRaw;
  const data_t *payload = data;
  idx_t payload_size = size;
  std::vector<data_t> lz;
  if (LzEncode(data, size, lz)) {
    codec = SpillCodec::kLz;
    payload = lz.data();
    payload_size = lz.size();
  }
  // The value-oriented codecs cost full extra passes; only consult them when
  // LZ left real room on the table (they win on numeric pages whose values
  // vary in the low bits, which defeats byte-oriented matching).
  std::vector<data_t> rle;
  std::vector<data_t> word_for;
  if (payload_size * 4 > size * 3) {
    ByteRleEncode(data, size, rle);
    if (!rle.empty() && rle.size() < payload_size) {
      codec = SpillCodec::kByteRle;
      payload = rle.data();
      payload_size = rle.size();
    }
    if (size % 8 == 0 && size > 0) {
      WordForEncode(data, size, word_for);
      if (!word_for.empty() && word_for.size() < payload_size) {
        codec = SpillCodec::kWordFor;
        payload = word_for.data();
        payload_size = word_for.size();
      }
    }
  }
  out.reserve(SpillFrameHeader::kSize + payload_size);
  WriteFrameHeader(out, codec, size, payload_size,
                   FrameChecksum(payload, payload_size));
  AppendBytes(out, payload, payload_size);
}

Status PeekSpillFrame(const_data_ptr_t data, idx_t size,
                      SpillFrameHeader &header) {
  if (size < SpillFrameHeader::kSize) {
    return Status::IOError("corrupt spill frame: header truncated");
  }
  const_data_ptr_t cursor = data;
  if (ReadValue<uint32_t>(cursor) != SpillFrameHeader::kMagic) {
    return Status::IOError("corrupt spill frame: bad magic");
  }
  uint8_t codec = *cursor++;
  cursor++;                      // flags
  ReadValue<uint16_t>(cursor);   // reserved
  if (codec > static_cast<uint8_t>(SpillCodec::kLz)) {
    return Status::IOError("corrupt spill frame: unknown codec id " +
                           std::to_string(codec));
  }
  header.codec = static_cast<SpillCodec>(codec);
  header.raw_len = ReadValue<uint32_t>(cursor);
  header.comp_len = ReadValue<uint32_t>(cursor);
  header.checksum = ReadValue<uint32_t>(cursor);
  if (SpillFrameHeader::kSize + header.comp_len > size) {
    return Status::IOError("corrupt spill frame: payload truncated");
  }
  return Status::OK();
}

Status DecompressSpillFrame(const_data_ptr_t data, idx_t size, data_ptr_t out,
                            idx_t out_size) {
  SpillFrameHeader header;
  SSAGG_RETURN_NOT_OK(PeekSpillFrame(data, size, header));
  if (header.raw_len != out_size) {
    return Status::IOError("corrupt spill frame: raw length " +
                           std::to_string(header.raw_len) +
                           " does not match expected " +
                           std::to_string(out_size));
  }
  const_data_ptr_t payload = data + SpillFrameHeader::kSize;
  if (FrameChecksum(payload, header.comp_len) != header.checksum) {
    return Status::IOError("corrupt spill frame: checksum mismatch");
  }
  switch (header.codec) {
    case SpillCodec::kRaw:
      if (header.comp_len != out_size) {
        return Status::IOError("corrupt spill frame: raw payload length "
                               "mismatch");
      }
      std::memcpy(out, payload, out_size);
      return Status::OK();
    case SpillCodec::kByteRle:
      return ByteRleDecode(payload, header.comp_len, out, out_size);
    case SpillCodec::kWordFor:
      return WordForDecode(payload, header.comp_len, out, out_size);
    case SpillCodec::kLz:
      return LzDecode(payload, header.comp_len, out, out_size);
  }
  return Status::IOError("corrupt spill frame: unknown codec");
}

}  // namespace ssagg
