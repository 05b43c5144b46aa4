// File-level encoding on top of Carousel codes: the paper's "tool that
// converts the original data into blocks encoded with Carousel codes" plus
// the FileInputFormat analogue that "knows the boundary between the original
// data and parity data in each block" (§VIII-A).
//
// A file is split into stripes of k * block_bytes original bytes (the last
// stripe zero-padded), each stripe encoded into n blocks.  Because
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
  /// Encodes `file` with `code` into ceil(size / (k*block_bytes)) stripes of
  /// n blocks each.  block_bytes must be a positive multiple of code.s().
  /// The code must outlive this object.
  ErasureFile(const Carousel& code, std::span<const Byte> file,
              std::size_t block_bytes);

  const Carousel& code() const { return *code_; }
  std::size_t file_bytes() const { return file_bytes_; }
  std::size_t block_bytes() const { return block_bytes_; }
  std::size_t stripes() const { return stripes_; }
  /// Total stored bytes across all stripes and blocks (storage overhead).
  std::size_t stored_bytes() const { return store_.size(); }

  std::span<const Byte> block(std::size_t stripe, std::size_t index) const;

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

  /// Verifies every available block against a fresh encode (integrity
  /// check used by tests and the failure-injection example).
  bool verify() const;

 private:
  std::span<Byte> block_mut(std::size_t stripe, std::size_t index);
  /// The stripe's n blocks, an empty span for each unavailable one.
  std::vector<std::span<const Byte>> stripe_views(std::size_t stripe) const;
  std::size_t slot(std::size_t stripe, std::size_t index) const {
    return stripe * code_->n() + index;
  }

  const Carousel* code_;
  std::size_t file_bytes_ = 0;
  std::size_t block_bytes_ = 0;
  std::size_t stripes_ = 0;

  std::vector<Byte> store_;        // stripes * n * block_bytes
  std::vector<bool> available_;    // per block
  std::vector<Byte> padded_file_;  // original data, zero-padded per stripe
};

}  // namespace carousel::storage

#endif  // CAROUSEL_STORAGE_ERASURE_FILE_H
