// Streaming (bounded-memory) encode.
//
// ErasureFile holds the whole object in memory — fine for blocks and tests,
// wrong for the paper's 3 GB-and-up files on a datanode with many tenants.
// StreamingEncoder consumes an arbitrarily long byte stream with one
// stripe's working set in memory (k blocks of input, n blocks of output),
// emitting completed stripes through a sink callback, in the exact
// on-disk/on-wire block layout of ErasureFile, byte for byte.
// CarouselStore::put_file uploads through it.  There is no streaming
// decoder: reads go through CarouselStore::read_file or ErasureFile.

#ifndef CAROUSEL_STORAGE_STREAM_H
#define CAROUSEL_STORAGE_STREAM_H

#include <functional>
#include <vector>

#include "codes/carousel.h"

namespace carousel::storage {

using codes::Byte;
using codes::Carousel;

/// Receives the encoded blocks of one completed stripe.  `blocks[i]` is
/// block i (n spans, each block_bytes long); valid only during the call.
using StripeSink = std::function<void(
    std::size_t stripe, std::span<const std::span<const Byte>> blocks)>;

class StreamingEncoder {
 public:
  /// The code must outlive the encoder.
  StreamingEncoder(const Carousel& code, std::size_t block_bytes,
                   StripeSink sink);

  /// Appends input bytes; emits a stripe through the sink whenever
  /// k*block_bytes have accumulated.
  void write(std::span<const Byte> bytes);

  /// Flushes the final, zero-padded stripe (if any input is pending) and
  /// returns the total number of stripes emitted.  write() after finish()
  /// throws.  An empty input still emits one stripe, matching ErasureFile.
  std::size_t finish();

  std::size_t stripes_emitted() const { return stripe_; }
  std::uint64_t bytes_consumed() const { return consumed_; }

 private:
  void emit();

  const Carousel* code_;
  std::size_t block_bytes_;
  StripeSink sink_;
  std::vector<Byte> pending_;   // < k*block_bytes input bytes
  std::vector<Byte> out_;       // n*block_bytes scratch
  std::size_t stripe_ = 0;
  std::uint64_t consumed_ = 0;
  bool finished_ = false;
};

}  // namespace carousel::storage

#endif  // CAROUSEL_STORAGE_STREAM_H
