// File-level encoding on top of Carousel codes: the paper's "tool that
// converts the original data into blocks encoded with Carousel codes" plus
// the FileInputFormat analogue that "knows the boundary between the original
// data and parity data in each block" (§VIII-A).
//
// A file is split into stripes of k * block_bytes original bytes (the last
// stripe zero-padded), each stripe encoded into n blocks — the layout
// LinearCode::stripes_for/stripe_message define once for this type (through
// encode_stripe) and the networked store alike.  Blocks are kept
// block-major: block i of every stripe back to back is block_file(i), the
// unit a server (or carouselctl's block_<i>.bin) holds.  Because
// Carousel(n, k, k, k) is exactly the systematic RS code, this one type
// covers both the paper's RS baseline and every Carousel configuration.

#ifndef CAROUSEL_STORAGE_ERASURE_FILE_H
#define CAROUSEL_STORAGE_ERASURE_FILE_H

#include <vector>

#include "codes/carousel.h"

namespace carousel::storage {

using codes::Byte;
using codes::Carousel;
using codes::IoStats;

class ErasureFile {
 public:
  /// Encodes `file` with `code` into code.stripes_for(size, block_bytes)
  /// stripes of n blocks each (which throws unless block_bytes is a positive
  /// multiple of code.s()).  Keeps no copy of `file`.  The code must outlive
  /// this object.
  ErasureFile(const Carousel& code, std::span<const Byte> file,
              std::size_t block_bytes);

  /// An encoded file of `file_bytes` from its block files: block_files[i]
  /// is block_file(i) of the original encode.  Block i is unavailable in
  /// every stripe when that entry is empty, wrong-sized or absent.
  ErasureFile(const Carousel& code, std::size_t file_bytes,
              std::size_t block_bytes,
              std::span<const std::vector<Byte>> block_files);

  const Carousel& code() const { return *code_; }
  std::size_t file_bytes() const { return file_bytes_; }
  std::size_t block_bytes() const { return block_bytes_; }
  std::size_t stripes() const { return stripes_; }
  /// Total stored bytes across all stripes and blocks (storage overhead).
  std::size_t stored_bytes() const { return store_.size(); }

  std::span<const Byte> block(std::size_t stripe, std::size_t index) const;
  /// Block `index` of every stripe, back to back (stripes() * block_bytes()).
  std::span<const Byte> block_file(std::size_t index) const;

  /// Marks a block unavailable / available again (failure injection).
  void set_block_available(std::size_t stripe, std::size_t index, bool ok);
  bool block_available(std::size_t stripe, std::size_t index) const;
  /// Fails block `index` of every stripe (a node loss in the paper's
  /// one-block-per-server placement).
  void fail_block_index(std::size_t index);

  /// Reads the whole file back, each stripe through the code's read planner
  /// over its available blocks (decode_stripe): the p data extents, §VII
  /// parity stand-ins, or the fewest-units plan.  Throws std::runtime_error
  /// when a stripe's available blocks cannot decode.
  std::vector<Byte> read_all(IoStats* stats = nullptr) const;

  /// Rebuilds an unavailable block of one stripe through the code's repair
  /// planner (repair_stripe: d projecting helpers, else k whole blocks),
  /// restoring its availability.  Returns the repair traffic.
  IoStats repair_block(std::size_t stripe, std::size_t index);

  /// A replaced node: rebuilds block `index` of every stripe from the other
  /// blocks, available or not before, and returns the summed traffic.
  IoStats repair_block_index(std::size_t index);

  /// True when every available block equals a fresh encode of `file`, the
  /// original this object was encoded from.
  bool verify(std::span<const Byte> file) const;

 private:
  std::span<Byte> block_mut(std::size_t stripe, std::size_t index);
  /// The stripe's n blocks, an empty span for each unavailable one.
  std::vector<std::span<const Byte>> stripe_views(std::size_t stripe) const;
  std::size_t slot(std::size_t stripe, std::size_t index) const {
    return index * stripes_ + stripe;
  }

  const Carousel* code_;
  std::size_t file_bytes_ = 0;
  std::size_t block_bytes_ = 0;
  std::size_t stripes_ = 0;

  std::vector<Byte> store_;      // block-major: n * stripes * block_bytes
  std::vector<bool> available_;  // per block, by slot()
};

}  // namespace carousel::storage

#endif  // CAROUSEL_STORAGE_ERASURE_FILE_H
