#include "compression/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"

namespace ssagg {
namespace {

Codec SegmentCodec(const std::vector<data_t> &segment) {
  return static_cast<Codec>(segment[0]);
}

/// Copies the first `len` bytes of `bytes` into a buffer of exactly `len`
/// bytes, so AddressSanitizer flags any read past the end.
std::unique_ptr<data_t[]> ExactCopy(const std::vector<data_t> &bytes,
                                    idx_t len) {
  auto copy = std::make_unique<data_t[]>(len);
  std::memcpy(copy.get(), bytes.data(), len);
  return copy;
}

/// Decodes a whole segment from an exact-size buffer into `out`.
Status Decode(const std::vector<data_t> &segment, Vector &out, idx_t *count) {
  auto exact = ExactCopy(segment, segment.size());
  return DecodeSegment(exact.get(), segment.size(), out, count);
}

/// Decodes `segment` and checks that every value and validity bit of rows
/// [0, count) of `input` round-trips.
void ExpectDecodesTo(const std::vector<data_t> &segment, const Vector &input,
                     idx_t count) {
  Vector output(input.type());
  idx_t decoded = 0;
  Status status = Decode(segment, output, &decoded);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(decoded, count);
  for (idx_t i = 0; i < count; i++) {
    ASSERT_EQ(input.validity().RowIsValid(i), output.validity().RowIsValid(i))
        << "validity of row " << i;
    if (!input.validity().RowIsValid(i)) {
      continue;
    }
    if (input.type() == LogicalTypeId::kVarchar) {
      ASSERT_EQ(input.GetString(i).View(), output.GetString(i).View())
          << "string row " << i;
    } else if (input.type() == LogicalTypeId::kInt32) {
      ASSERT_EQ(input.GetValue<int32_t>(i), output.GetValue<int32_t>(i))
          << "row " << i;
    } else if (input.type() == LogicalTypeId::kDouble) {
      ASSERT_EQ(input.GetValue<double>(i), output.GetValue<double>(i))
          << "row " << i;
    } else {
      ASSERT_EQ(input.GetValue<int64_t>(i), output.GetValue<int64_t>(i))
          << "row " << i;
    }
  }
}

/// Compresses `input` rows [0, count), decodes, and checks the round trip.
/// Returns the codec that was chosen.
Codec RoundTrip(const Vector &input, idx_t count) {
  std::vector<data_t> segment;
  Status status = CompressSegment(input, count, segment);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ExpectDecodesTo(segment, input, count);
  return SegmentCodec(segment);
}

TEST(CodecTest, SingleValueRoundTrips) {
  Vector input(LogicalTypeId::kInt64);
  input.SetValue<int64_t>(0, 42);
  RoundTrip(input, 1);
}

TEST(CodecTest, ConstantVectorChoosesZeroBitFrame) {
  // All-equal values: a zero-bit frame-of-reference (9 payload bytes) beats
  // even a single RLE run (16 bytes).
  Vector input(LogicalTypeId::kInt64);
  for (idx_t i = 0; i < kVectorSize; i++) {
    input.SetValue<int64_t>(i, 7777);
  }
  EXPECT_EQ(RoundTrip(input, kVectorSize), Codec::kForBitpack);
  std::vector<data_t> segment;
  ASSERT_TRUE(CompressSegment(input, kVectorSize, segment).ok());
  idx_t header = 1 + 4 + (kVectorSize + 7) / 8;
  EXPECT_EQ(segment.size(), header + 9);  // min value + bit width, no bits
}

TEST(CodecTest, FewWideRunsChooseRle) {
  // Eight long runs of far-apart values: bit-packing needs ~53 bits per
  // value, RLE needs 12 bytes per run.
  Vector input(LogicalTypeId::kInt64);
  for (idx_t i = 0; i < kVectorSize; i++) {
    input.SetValue<int64_t>(
        i, static_cast<int64_t>(i / 256) * 1000000000000000LL);
  }
  EXPECT_EQ(RoundTrip(input, kVectorSize), Codec::kRle);

  std::vector<data_t> segment;
  ASSERT_TRUE(CompressSegment(input, kVectorSize, segment).ok());
  idx_t header = 1 + 4 + (kVectorSize + 7) / 8;
  EXPECT_EQ(segment.size(), header + 4 + 8 * 12);
}

TEST(CodecTest, AllDistinctSmallRangeChoosesBitpack) {
  Vector input(LogicalTypeId::kInt64);
  for (idx_t i = 0; i < kVectorSize; i++) {
    input.SetValue<int64_t>(i, 1000000 + static_cast<int64_t>(i));
  }
  // All-distinct defeats RLE; the 11-bit range defeats plain.
  EXPECT_EQ(RoundTrip(input, kVectorSize), Codec::kForBitpack);
}

TEST(CodecTest, IncompressibleValuesFallBackToPlain) {
  Vector input(LogicalTypeId::kInt64);
  RandomEngine rng(0xC0DEC);
  for (idx_t i = 0; i < kVectorSize; i++) {
    input.SetValue<int64_t>(i, static_cast<int64_t>(rng.NextUint64()));
  }
  // Pin the frame to the full 64-bit range so bit-packing cannot win.
  input.SetValue<int64_t>(0, std::numeric_limits<int64_t>::min());
  input.SetValue<int64_t>(1, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(RoundTrip(input, kVectorSize), Codec::kPlain);
}

TEST(CodecTest, MinMaxInt64FrameRoundTrips) {
  // The frame spans the entire int64 range: the frame-of-reference range
  // computation must not overflow (it is done in uint64).
  Vector input(LogicalTypeId::kInt64);
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t values[] = {kMin, kMax, 0, -1, 1, kMin + 1, kMax - 1};
  idx_t count = sizeof(values) / sizeof(values[0]);
  for (idx_t i = 0; i < count; i++) {
    input.SetValue<int64_t>(i, values[i]);
  }
  RoundTrip(input, count);
}

TEST(CodecTest, NegativeFrameOfReferenceRoundTrips) {
  Vector input(LogicalTypeId::kInt64);
  for (idx_t i = 0; i < 512; i++) {
    input.SetValue<int64_t>(i, -100000 + static_cast<int64_t>(i * 3));
  }
  EXPECT_EQ(RoundTrip(input, 512), Codec::kForBitpack);
}

TEST(CodecTest, BitWidthBoundariesRoundTrip) {
  // For each width B, all-distinct values whose range needs exactly B bits:
  // byte boundaries, word boundaries, and the extremes.
  for (idx_t bits : {idx_t(1), idx_t(2), idx_t(7), idx_t(8), idx_t(9),
                     idx_t(15), idx_t(16), idx_t(17), idx_t(31), idx_t(32),
                     idx_t(33), idx_t(63)}) {
    Vector input(LogicalTypeId::kInt64);
    constexpr idx_t kCount = 256;
    uint64_t range = (uint64_t(1) << bits) - 1;
    // Cycle through the frame so neighbours differ (RLE loses) and the
    // maximum delta is exactly 2^bits - 1.
    for (idx_t i = 0; i < kCount - 1; i++) {
      input.SetValue<int64_t>(i, static_cast<int64_t>(i % (range + 1)));
    }
    input.SetValue<int64_t>(kCount - 1, static_cast<int64_t>(range));
    EXPECT_EQ(RoundTrip(input, kCount), Codec::kForBitpack)
        << "bits=" << bits;
  }
}

TEST(CodecTest, Int32RoundTripsAllCodecs) {
  {
    Vector rle(LogicalTypeId::kInt32);
    for (idx_t i = 0; i < kVectorSize; i++) {
      rle.SetValue<int32_t>(i, static_cast<int32_t>(i / 256));
    }
    EXPECT_EQ(RoundTrip(rle, kVectorSize), Codec::kRle);
  }
  {
    Vector bitpack(LogicalTypeId::kInt32);
    for (idx_t i = 0; i < kVectorSize; i++) {
      bitpack.SetValue<int32_t>(i, static_cast<int32_t>(i) - 1024);
    }
    EXPECT_EQ(RoundTrip(bitpack, kVectorSize), Codec::kForBitpack);
  }
  {
    Vector plain(LogicalTypeId::kInt32);
    RandomEngine rng(0x3217);
    for (idx_t i = 0; i < kVectorSize; i++) {
      plain.SetValue<int32_t>(i, static_cast<int32_t>(rng.NextUint64()));
    }
    plain.SetValue<int32_t>(0, std::numeric_limits<int32_t>::min());
    plain.SetValue<int32_t>(1, std::numeric_limits<int32_t>::max());
    EXPECT_EQ(RoundTrip(plain, kVectorSize), Codec::kPlain);
  }
}

TEST(CodecTest, NullsPreservedAcrossCodecs) {
  // Every third row NULL, under each integer codec's preferred shape.
  for (int shape = 0; shape < 3; shape++) {
    Vector input(LogicalTypeId::kInt64);
    RandomEngine rng(7 + shape);
    for (idx_t i = 0; i < kVectorSize; i++) {
      int64_t v = shape == 0   ? 5
                  : shape == 1 ? static_cast<int64_t>(i)
                               : static_cast<int64_t>(rng.NextUint64());
      input.SetValue<int64_t>(i, v);
      if (i % 3 == 0) {
        input.validity().SetInvalid(i);
      }
    }
    RoundTrip(input, kVectorSize);
  }
}

TEST(CodecTest, StringsRoundTripWithEmptyLongAndNull) {
  Vector input(LogicalTypeId::kVarchar);
  std::vector<std::string> originals;
  for (idx_t i = 0; i < 300; i++) {
    if (i % 5 == 0) {
      originals.push_back("");
    } else if (i % 7 == 0) {
      originals.push_back(std::string(100 + i, 'x'));  // non-inlined
    } else {
      originals.push_back(std::to_string(i) + "s");
    }
  }
  for (idx_t i = 0; i < originals.size(); i++) {
    input.SetString(i, originals[i]);
    if (i % 11 == 0) {
      input.validity().SetInvalid(i);
    }
  }
  EXPECT_EQ(RoundTrip(input, originals.size()), Codec::kStringPlain);
}

TEST(CodecTest, DoublesUsePlainStorage) {
  Vector input(LogicalTypeId::kDouble);
  for (idx_t i = 0; i < 1000; i++) {
    input.SetValue<double>(i, 0.5 * static_cast<double>(i));
  }
  EXPECT_EQ(RoundTrip(input, 1000), Codec::kPlain);
}

TEST(CodecTest, EmptySegmentDecodes) {
  // CompressSegment requires rows, but a hand-crafted zero-count segment
  // (codec, count=0, no validity, no payload) must decode cleanly.
  std::vector<data_t> segment;
  segment.push_back(static_cast<data_t>(Codec::kPlain));
  uint32_t zero = 0;
  segment.insert(segment.end(), reinterpret_cast<data_t *>(&zero),
                 reinterpret_cast<data_t *>(&zero) + 4);
  Vector out(LogicalTypeId::kInt64);
  idx_t count = 1;
  Status status = Decode(segment, out, &count);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(count, 0u);
}

TEST(CodecTest, TruncatedSegmentsReturnCleanErrors) {
  // Build one segment per codec, then decode every proper prefix: each must
  // fail with a Status, never crash or read out of bounds.
  std::vector<std::vector<data_t>> segments;
  {
    Vector rle(LogicalTypeId::kInt64);
    Vector bitpack(LogicalTypeId::kInt64);
    Vector plain(LogicalTypeId::kInt64);
    RandomEngine rng(99);
    for (idx_t i = 0; i < 500; i++) {
      rle.SetValue<int64_t>(i, 3);
      bitpack.SetValue<int64_t>(i, static_cast<int64_t>(i));
      plain.SetValue<int64_t>(i, static_cast<int64_t>(rng.NextUint64()));
    }
    for (const Vector *v : {&rle, &bitpack, &plain}) {
      segments.emplace_back();
      ASSERT_TRUE(CompressSegment(*v, 500, segments.back()).ok());
    }
    Vector strings(LogicalTypeId::kVarchar);
    for (idx_t i = 0; i < 100; i++) {
      strings.SetString(i, "payload_" + std::to_string(i));
    }
    segments.emplace_back();
    ASSERT_TRUE(CompressSegment(strings, 100, segments.back()).ok());
  }
  for (const auto &segment : segments) {
    LogicalTypeId type = SegmentCodec(segment) == Codec::kStringPlain
                             ? LogicalTypeId::kVarchar
                             : LogicalTypeId::kInt64;
    for (idx_t len = 0; len < segment.size(); len++) {
      // Each prefix lives in its own exact-size buffer: a read past `len`
      // is a heap overflow under AddressSanitizer, not a silent success.
      auto prefix = ExactCopy(segment, len);
      Vector out(type);
      idx_t count = 0;
      Status status = DecodeSegment(prefix.get(), len, out, &count);
      EXPECT_FALSE(status.ok())
          << CodecName(SegmentCodec(segment)) << " prefix of " << len
          << " bytes decoded successfully";
    }
  }
}

TEST(CodecTest, UnknownCodecByteIsRejected) {
  std::vector<data_t> segment;
  segment.push_back(0x7F);
  uint32_t count = 1;
  segment.insert(segment.end(), reinterpret_cast<data_t *>(&count),
                 reinterpret_cast<data_t *>(&count) + 4);
  segment.push_back(0x01);  // validity
  segment.resize(segment.size() + 8, 0);
  Vector out(LogicalTypeId::kInt64);
  idx_t decoded = 0;
  EXPECT_FALSE(Decode(segment, out, &decoded).ok());
}

//===----------------------------------------------------------------------===//
// Crafted corrupt segments
//===----------------------------------------------------------------------===//

/// Segment header: codec byte, row count and an all-valid bitmap.
std::vector<data_t> SegmentHeader(Codec codec, uint32_t count) {
  std::vector<data_t> segment;
  segment.push_back(static_cast<data_t>(codec));
  segment.insert(segment.end(), reinterpret_cast<data_t *>(&count),
                 reinterpret_cast<data_t *>(&count) + 4);
  segment.resize(segment.size() + (count + 7) / 8, 0xFF);
  return segment;
}

template <typename T>
void Append(std::vector<data_t> &segment, T value) {
  auto *bytes = reinterpret_cast<const data_t *>(&value);
  segment.insert(segment.end(), bytes, bytes + sizeof(T));
}

Status DecodeAs(LogicalTypeId type, const std::vector<data_t> &segment) {
  Vector out(type);
  idx_t count = 0;
  return Decode(segment, out, &count);
}

TEST(CodecTest, TruncatedBitpackHeaderIsRejected) {
  // The 9-byte frame header (min value, bit width) is cut short: only 3 of
  // its bytes are present.
  auto segment = SegmentHeader(Codec::kForBitpack, 16);
  segment.resize(segment.size() + 3, 0);
  EXPECT_FALSE(DecodeAs(LogicalTypeId::kInt64, segment).ok());
}

TEST(CodecTest, TruncatedRleRunCountIsRejected) {
  // Two of the four run-count bytes are present.
  auto segment = SegmentHeader(Codec::kRle, 16);
  segment.resize(segment.size() + 2, 0);
  EXPECT_FALSE(DecodeAs(LogicalTypeId::kInt32, segment).ok());
}

TEST(CodecTest, BitWidthAbove64IsRejected) {
  for (uint8_t bits : {uint8_t(65), uint8_t(128), uint8_t(255)}) {
    auto segment = SegmentHeader(Codec::kForBitpack, 8);
    Append<int64_t>(segment, 0);
    segment.push_back(bits);
    segment.resize(segment.size() + 8 * 32, 0xAB);  // ample payload
    EXPECT_FALSE(DecodeAs(LogicalTypeId::kInt64, segment).ok())
        << "bits=" << int(bits);
  }
}

TEST(CodecTest, StringOffsetsOutsideCharsAreRejected) {
  // Offsets {0, 4, 2} run backwards (begin > finish); offsets {0, 9, 4} put
  // the first string past the 4 bytes of character data (finish > total).
  for (auto middle : {uint32_t(4), uint32_t(9)}) {
    uint32_t total = middle == 4 ? 2 : 4;
    auto segment = SegmentHeader(Codec::kStringPlain, 2);
    Append<uint32_t>(segment, 0);
    Append<uint32_t>(segment, middle);
    Append<uint32_t>(segment, total);
    segment.resize(segment.size() + total, 'x');
    EXPECT_FALSE(DecodeAs(LogicalTypeId::kVarchar, segment).ok())
        << "middle offset " << middle;
  }
}

TEST(CodecTest, RowCountAboveVectorSizeIsRejected) {
  // A well-formed plain segment one row larger than a vector holds.
  auto count = static_cast<uint32_t>(kVectorSize + 1);
  auto segment = SegmentHeader(Codec::kPlain, count);
  segment.resize(segment.size() + count * sizeof(int64_t), 0);
  EXPECT_FALSE(DecodeAs(LogicalTypeId::kInt64, segment).ok());
}

TEST(CodecTest, CodecNotMatchingColumnTypeIsRejected) {
  // String segments only decode into VARCHAR vectors, integer codecs only
  // into integer vectors, and VARCHAR vectors take no plain values.
  Vector strings(LogicalTypeId::kVarchar);
  Vector integers(LogicalTypeId::kInt64);
  for (idx_t i = 0; i < 64; i++) {
    strings.SetString(i, "value number " + std::to_string(i));
    integers.SetValue<int64_t>(i, static_cast<int64_t>(i));
  }
  std::vector<data_t> string_segment;
  std::vector<data_t> int_segment;
  ASSERT_TRUE(CompressSegment(strings, 64, string_segment).ok());
  ASSERT_TRUE(CompressSegment(integers, 64, int_segment).ok());
  ASSERT_EQ(SegmentCodec(int_segment), Codec::kForBitpack);
  EXPECT_FALSE(DecodeAs(LogicalTypeId::kInt64, string_segment).ok());
  EXPECT_FALSE(DecodeAs(LogicalTypeId::kDouble, int_segment).ok());
  EXPECT_FALSE(DecodeAs(LogicalTypeId::kVarchar, int_segment).ok());
  auto plain = SegmentHeader(Codec::kPlain, 4);
  plain.resize(plain.size() + 4 * 16, 0);
  EXPECT_FALSE(DecodeAs(LogicalTypeId::kVarchar, plain).ok());
}

//===----------------------------------------------------------------------===//
// Byte-exactness of the FoR bit stream
//===----------------------------------------------------------------------===//

/// Bit-at-a-time reference for the FoR payload: the `bits` low bits of each
/// delta, LSB-first, zero-padded to whole bytes. This is the format every
/// stored segment and spilled word-FoR frame uses.
std::vector<data_t> ReferencePack(const std::vector<uint64_t> &deltas,
                                  idx_t bits) {
  std::vector<data_t> out((deltas.size() * bits + 7) / 8, 0);
  for (idx_t i = 0; i < deltas.size(); i++) {
    for (idx_t b = 0; b < bits; b++) {
      idx_t pos = i * bits + b;
      if ((deltas[i] >> b) & 1) {
        out[pos >> 3] |= static_cast<data_t>(1 << (pos & 7));
      }
    }
  }
  return out;
}

/// The bit-at-a-time counterpart: value `index` of a reference bit stream.
uint64_t ReferenceUnpack(const std::vector<data_t> &packed, idx_t index,
                         idx_t bits) {
  uint64_t value = 0;
  for (idx_t b = 0; b < bits; b++) {
    idx_t pos = index * bits + b;
    value |= uint64_t((packed[pos >> 3] >> (pos & 7)) & 1) << b;
  }
  return value;
}

TEST(CodecTest, BitpackMatchesBitAtATimeReference) {
  // Every width 0..64 at counts around byte, word and vector boundaries and
  // at three NULL densities:
  //  - CompressSegment's FoR payload must equal the reference bit stream.
  //    Values span [0, 2^bits), so NULL rows (stored as 0) keep the frame.
  //    CompressSegment stores plain only where FoR cannot be smaller.
  //  - A FoR segment assembled with the reference packer (the layout of
  //    tables written by earlier versions) must decode to its values, at
  //    every width, including those CompressSegment stores plain.
  const idx_t counts[] = {1, 7, 8, 9, 63, 64, 65, 1000, 2047, 2048};
  const double null_densities[] = {0.0, 0.1, 1.0};
  const int64_t crafted_base = -123456789;
  RandomEngine rng(0xB175);
  for (idx_t bits = 0; bits <= 64; bits++) {
    const uint64_t max_delta =
        bits == 64 ? ~uint64_t(0) : (uint64_t(1) << bits) - 1;
    for (idx_t count : counts) {
      for (double density : null_densities) {
        SCOPED_TRACE("bits=" + std::to_string(bits) + " count=" +
                     std::to_string(count) + " nulls=" +
                     std::to_string(density));
        // Row 0 pins the frame at 0 and the last row at max_delta, unless
        // every row is NULL.
        Vector input(LogicalTypeId::kInt64);
        Vector crafted_values(LogicalTypeId::kInt64);
        std::vector<uint64_t> deltas(count);
        for (idx_t i = 0; i < count; i++) {
          bool pinned = i == 0 || i == count - 1;
          bool null = density >= 1.0 ||
                      (density > 0 && !pinned && rng.NextUint64() % 10 == 0);
          uint64_t delta = rng.NextUint64() & max_delta;
          if (null || i == 0) {
            delta = 0;
          } else if (i == count - 1) {
            delta = max_delta;
          }
          deltas[i] = delta;
          input.SetValue<int64_t>(i, static_cast<int64_t>(delta));
          crafted_values.SetValue<int64_t>(
              i, static_cast<int64_t>(static_cast<uint64_t>(crafted_base) +
                                      delta));
          if (null) {
            input.validity().SetInvalid(i);
            crafted_values.validity().SetInvalid(i);
          }
        }
        idx_t frame_bits = density >= 1.0 || count == 1 ? 0 : bits;
        std::vector<data_t> reference = ReferencePack(deltas, frame_bits);
        for (idx_t i = 0; i < count; i++) {
          ASSERT_EQ(ReferenceUnpack(reference, i, frame_bits), deltas[i]);
        }

        std::vector<data_t> compressed;
        ASSERT_TRUE(CompressSegment(input, count, compressed).ok());
        const idx_t header = 1 + 4 + (count + 7) / 8;
        if (bits == 64) {
          // Values past INT64_MAX read as negative, so CompressSegment's
          // signed frame differs from [0, 2^64); only the round trip holds.
        } else if (SegmentCodec(compressed) == Codec::kForBitpack) {
          int64_t min_v;
          std::memcpy(&min_v, compressed.data() + header, 8);
          EXPECT_EQ(min_v, 0);
          ASSERT_EQ(compressed[header + 8], frame_bits);
          ASSERT_EQ(std::vector<data_t>(compressed.begin() + header + 9,
                                        compressed.end()),
                    reference);
        } else {
          // Only a frame too wide to beat plain storage may skip FoR.
          EXPECT_EQ(SegmentCodec(compressed), Codec::kPlain);
          EXPECT_GE(9 + (count * frame_bits + 7) / 8, count * 8);
        }
        ExpectDecodesTo(compressed, input, count);

        std::vector<data_t> crafted(compressed.begin(),
                                    compressed.begin() + header);
        crafted[0] = static_cast<data_t>(Codec::kForBitpack);
        Append<int64_t>(crafted, crafted_base);
        crafted.push_back(static_cast<data_t>(frame_bits));
        crafted.insert(crafted.end(), reference.begin(), reference.end());
        ExpectDecodesTo(crafted, crafted_values, count);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Spill frames: roundtrips and hardening against corrupt input
//===----------------------------------------------------------------------===//

std::vector<data_t> PatternPayload(idx_t size, int pattern) {
  std::vector<data_t> payload(size);
  switch (pattern) {
    case 0:  // all zeros: best case for byte-RLE
      break;
    case 1:  // small-delta 64-bit words: word-FoR territory
      for (idx_t i = 0; i + sizeof(uint64_t) <= size; i += sizeof(uint64_t)) {
        uint64_t word = 5000000 + (i / sizeof(uint64_t)) % 1000;
        std::memcpy(payload.data() + i, &word, sizeof(word));
      }
      break;
    default: {  // pseudo-random: incompressible, must fall back to raw
      uint64_t state = 0xDEADBEEFCAFEF00DULL + pattern;
      for (idx_t i = 0; i < size; i++) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        payload[i] = static_cast<data_t>(state >> 33);
      }
      break;
    }
  }
  return payload;
}

TEST(SpillFrameTest, RoundtripAcrossPatternsAndSizes) {
  for (int pattern = 0; pattern < 3; pattern++) {
    for (idx_t size : {idx_t(1), idx_t(7), idx_t(4096), idx_t(65536),
                       idx_t(65543)}) {
      std::vector<data_t> payload = PatternPayload(size, pattern);
      std::vector<data_t> frame;
      CompressSpillFrame(payload.data(), size, frame);
      ASSERT_GE(frame.size(), SpillFrameHeader::kSize);
      // Never worse than raw + header.
      ASSERT_LE(frame.size(), size + SpillFrameHeader::kSize);
      SpillFrameHeader header;
      ASSERT_TRUE(PeekSpillFrame(frame.data(), frame.size(), header).ok());
      ASSERT_EQ(header.raw_len, size);
      std::vector<data_t> out(size, 0xCC);
      ASSERT_TRUE(
          DecompressSpillFrame(frame.data(), frame.size(), out.data(), size)
              .ok())
          << "pattern " << pattern << " size " << size;
      ASSERT_EQ(std::memcmp(out.data(), payload.data(), size), 0);
    }
  }
}

TEST(SpillFrameTest, CompressiblePayloadShrinks) {
  std::vector<data_t> payload = PatternPayload(65536, 0);
  std::vector<data_t> frame;
  CompressSpillFrame(payload.data(), payload.size(), frame);
  EXPECT_LT(frame.size(), payload.size() / 2);
}

TEST(SpillFrameTest, TruncatedHeaderIsCleanError) {
  std::vector<data_t> payload = PatternPayload(4096, 1);
  std::vector<data_t> frame;
  CompressSpillFrame(payload.data(), payload.size(), frame);
  std::vector<data_t> out(4096);
  for (idx_t keep = 0; keep < SpillFrameHeader::kSize; keep++) {
    SpillFrameHeader header;
    EXPECT_FALSE(PeekSpillFrame(frame.data(), keep, header).ok());
    EXPECT_FALSE(
        DecompressSpillFrame(frame.data(), keep, out.data(), 4096).ok());
  }
}

TEST(SpillFrameTest, TruncatedPayloadIsCleanError) {
  std::vector<data_t> payload = PatternPayload(4096, 1);
  std::vector<data_t> frame;
  CompressSpillFrame(payload.data(), payload.size(), frame);
  std::vector<data_t> out(4096);
  for (idx_t cut = 1; cut <= 16; cut++) {
    ASSERT_GT(frame.size(), cut);
    EXPECT_FALSE(DecompressSpillFrame(frame.data(), frame.size() - cut,
                                      out.data(), 4096)
                     .ok());
  }
}

TEST(SpillFrameTest, WrongOutputLengthIsCleanError) {
  std::vector<data_t> payload = PatternPayload(4096, 0);
  std::vector<data_t> frame;
  CompressSpillFrame(payload.data(), payload.size(), frame);
  std::vector<data_t> out(8192);
  EXPECT_FALSE(
      DecompressSpillFrame(frame.data(), frame.size(), out.data(), 4095).ok());
  EXPECT_FALSE(
      DecompressSpillFrame(frame.data(), frame.size(), out.data(), 8192).ok());
}

TEST(SpillFrameTest, EveryByteFlipFailsCleanlyOrDecodesIdentically) {
  // Flip every byte of the frame (header and payload) one at a time. Each
  // corruption must either be rejected with a clean Status or decode to the
  // exact original bytes (flips in ignored header fields) — never crash,
  // never silently return different data.
  for (int pattern = 0; pattern < 3; pattern++) {
    std::vector<data_t> payload = PatternPayload(512, pattern);
    std::vector<data_t> frame;
    CompressSpillFrame(payload.data(), payload.size(), frame);
    for (idx_t i = 0; i < frame.size(); i++) {
      std::vector<data_t> corrupt = frame;
      corrupt[i] ^= 0xFF;
      std::vector<data_t> out(payload.size(), 0xCC);
      Status status = DecompressSpillFrame(corrupt.data(), corrupt.size(),
                                           out.data(), payload.size());
      if (status.ok()) {
        EXPECT_EQ(std::memcmp(out.data(), payload.data(), payload.size()), 0)
            << "silent corruption at byte " << i << " pattern " << pattern;
      }
    }
  }
}

TEST(SpillFrameTest, OversizedCompLenIsCleanError) {
  std::vector<data_t> payload = PatternPayload(4096, 0);
  std::vector<data_t> frame;
  CompressSpillFrame(payload.data(), payload.size(), frame);
  // comp_len lives at header bytes [12, 16); claim far more payload than the
  // buffer holds.
  uint32_t huge = 0x7FFFFFFF;
  std::memcpy(frame.data() + 12, &huge, sizeof(huge));
  SpillFrameHeader header;
  EXPECT_FALSE(PeekSpillFrame(frame.data(), frame.size(), header).ok());
  std::vector<data_t> out(4096);
  EXPECT_FALSE(
      DecompressSpillFrame(frame.data(), frame.size(), out.data(), 4096).ok());
}

TEST(SpillFrameTest, WordForMatchesReferenceAtEveryWidth) {
  // 1500 words: one full 1024-word block and a 476-word tail block, each
  // stored as min (8 bytes), bit width (1 byte) and the reference bit stream
  // of its deltas. Narrow frames compress better under LZ; from 32 bits up
  // LZ finds too little and word-FoR must win.
  constexpr idx_t kWords = 1500;
  constexpr idx_t kBlockWords = 1024;
  for (idx_t bits = 1; bits < 64; bits++) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    const uint64_t max_delta = (uint64_t(1) << bits) - 1;
    RandomEngine rng(bits);
    std::vector<uint64_t> words(kWords);
    for (idx_t i = 0; i < kWords; i++) {
      words[i] = 1000 + (i % kBlockWords == 0   ? 0
                         : i % kBlockWords == 1 ? max_delta
                                                : rng.NextUint64() & max_delta);
    }
    std::vector<data_t> expected;
    for (idx_t start = 0; start < kWords; start += kBlockWords) {
      idx_t n = std::min(kBlockWords, kWords - start);
      std::vector<uint64_t> deltas(n);
      for (idx_t i = 0; i < n; i++) {
        deltas[i] = words[start + i] - 1000;
      }
      Append<uint64_t>(expected, 1000);
      expected.push_back(static_cast<data_t>(bits));
      auto packed = ReferencePack(deltas, bits);
      expected.insert(expected.end(), packed.begin(), packed.end());
    }

    const idx_t size = kWords * 8;
    std::vector<data_t> frame;
    CompressSpillFrame(reinterpret_cast<const data_t *>(words.data()), size,
                       frame);
    SpillFrameHeader header;
    ASSERT_TRUE(PeekSpillFrame(frame.data(), frame.size(), header).ok());
    if (bits >= 32) {
      ASSERT_EQ(header.codec, SpillCodec::kWordFor);
    }
    if (header.codec == SpillCodec::kWordFor) {
      ASSERT_EQ(std::vector<data_t>(frame.begin() + SpillFrameHeader::kSize,
                                    frame.end()),
                expected);
    }
    auto exact = ExactCopy(frame, frame.size());
    std::vector<uint64_t> out(kWords);
    ASSERT_TRUE(DecompressSpillFrame(exact.get(), frame.size(),
                                     reinterpret_cast<data_t *>(out.data()),
                                     size)
                    .ok());
    ASSERT_EQ(out, words);
  }
}

TEST(SpillFrameTest, BadMagicIsCleanError) {
  std::vector<data_t> payload = PatternPayload(1024, 0);
  std::vector<data_t> frame;
  CompressSpillFrame(payload.data(), payload.size(), frame);
  frame[0] ^= 0x01;
  SpillFrameHeader header;
  EXPECT_FALSE(PeekSpillFrame(frame.data(), frame.size(), header).ok());
}

}  // namespace
}  // namespace ssagg
