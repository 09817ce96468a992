#ifndef SSAGG_COMPRESSION_CODEC_H_
#define SSAGG_COMPRESSION_CODEC_H_

#include <vector>

#include "common/status.h"
#include "common/vector.h"

namespace ssagg {

/// Lightweight compression codecs for persistent column segments. DuckDB's
/// columnar storage is compressed, which is why persistent pages have no
/// dirty state and can always be evicted for free (paper Section III,
/// "Compatibility": "it is not generally possible to perform in-place
/// updates, as pages are always fully rewritten").
enum class Codec : uint8_t {
  kPlain = 0,       // raw fixed-width values
  kForBitpack = 1,  // frame-of-reference + bit-packing (integers)
  kRle = 2,         // run-length encoding (integers)
  kStringPlain = 3, // offsets + character data
};

/// Compresses rows [0, count) of `input` into `out` (appended). Numeric
/// columns choose the smallest of plain / FoR-bitpacking / RLE; VARCHAR
/// columns use the string format. NULL rows are recorded in a validity
/// bitmap and their payload is stored as zero/empty.
///
/// Segment format:
///   uint8 codec | uint32 count | validity bits ceil(count/8) | payload
Status CompressSegment(const Vector &input, idx_t count,
                       std::vector<data_t> &out);

/// Decodes a segment produced by CompressSegment straight into `out`,
/// whose type selects the value layout: rows [0, *count) receive the values,
/// NULL rows are marked invalid, and strings are copied into out's own heap.
/// `out` is reset first. Rejects corrupt input with a Status: a truncated
/// header or payload, a row count above kVectorSize (out's capacity), a codec
/// that does not fit out's type, a bit width above 64, or string offsets
/// outside the character data. Never reads outside [data, data + size).
Status DecodeSegment(const_data_ptr_t data, idx_t size, Vector &out,
                     idx_t *count);

const char *CodecName(Codec codec);

//===----------------------------------------------------------------------===//
// Spill frames
//===----------------------------------------------------------------------===//

/// Byte-oriented codecs for whole spilled pages and run-file flushes (as
/// opposed to the columnar segment codecs above). Chosen per frame by
/// CompressSpillFrame, recorded in the frame header.
enum class SpillCodec : uint8_t {
  kRaw = 0,      // payload stored verbatim
  kByteRle = 1,  // byte run-length encoding (zero padding, repeated bytes)
  kWordFor = 2,  // frame-of-reference + bit-packing over 64-bit words
  kLz = 3,       // greedy byte-oriented LZ77 (repeated row patterns, text)
};

/// Self-describing frame header, stored little-endian at the front of every
/// compressed spill frame:
///   uint32 magic | uint8 codec | uint8 flags | uint16 reserved |
///   uint32 raw_len | uint32 comp_len | uint32 checksum(payload)
struct SpillFrameHeader {
  static constexpr uint32_t kMagic = 0x46505353;  // "SSPF"
  static constexpr idx_t kSize = 20;

  SpillCodec codec = SpillCodec::kRaw;
  idx_t raw_len = 0;
  idx_t comp_len = 0;
  uint32_t checksum = 0;
};

/// Compresses `size` bytes into `out` (cleared first) as one frame: header
/// plus the smallest of the raw / byte-RLE / word-FoR encodings. Never
/// fails; the worst case is the raw payload plus SpillFrameHeader::kSize
/// bytes of header.
void CompressSpillFrame(const_data_ptr_t data, idx_t size,
                        std::vector<data_t> &out);

/// Parses and validates a frame header from the first kSize bytes of
/// `data`. Checks the magic, the codec id and that comp_len fits inside
/// `size`; does not touch the payload.
Status PeekSpillFrame(const_data_ptr_t data, idx_t size,
                      SpillFrameHeader &header);

/// Decodes one frame into exactly out_size bytes at `out`. Returns a clean
/// Status on any corruption: truncated input, checksum mismatch, raw_len
/// disagreeing with out_size, or a payload that decodes short/long/out of
/// bounds. Never reads outside [data, data + size) or writes outside
/// [out, out + out_size).
Status DecompressSpillFrame(const_data_ptr_t data, idx_t size, data_ptr_t out,
                            idx_t out_size);

}  // namespace ssagg

#endif  // SSAGG_COMPRESSION_CODEC_H_
