#include "storage/stream.h"

#include <algorithm>
#include <stdexcept>

namespace carousel::storage {

StreamingEncoder::StreamingEncoder(const Carousel& code,
                                   std::size_t block_bytes, StripeSink sink)
    : code_(&code), block_bytes_(block_bytes), sink_(std::move(sink)) {
  if (block_bytes == 0 || block_bytes % code.s() != 0)
    throw std::invalid_argument(
        "block_bytes must be a positive multiple of the code's "
        "subpacketization");
  if (!sink_) throw std::invalid_argument("sink must be callable");
  pending_.reserve(code.k() * block_bytes);
  out_.resize(code.n() * block_bytes);
}

void StreamingEncoder::write(std::span<const Byte> bytes) {
  if (finished_) throw std::logic_error("write after finish");
  consumed_ += bytes.size();
  const std::size_t stripe_data = code_->k() * block_bytes_;
  while (!bytes.empty()) {
    const std::size_t take =
        std::min(bytes.size(), stripe_data - pending_.size());
    pending_.insert(pending_.end(), bytes.begin(),
                    bytes.begin() + static_cast<std::ptrdiff_t>(take));
    bytes = bytes.subspan(take);
    if (pending_.size() == stripe_data) emit();
  }
}

std::size_t StreamingEncoder::finish() {
  if (finished_) return stripe_;
  finished_ = true;
  if (!pending_.empty() || stripe_ == 0) {
    pending_.resize(code_->k() * block_bytes_, 0);  // zero-pad the tail
    emit();
  }
  return stripe_;
}

void StreamingEncoder::emit() {
  std::vector<std::span<Byte>> blocks;
  blocks.reserve(code_->n());
  for (std::size_t i = 0; i < code_->n(); ++i)
    blocks.emplace_back(out_.data() + i * block_bytes_, block_bytes_);
  code_->encode(pending_, blocks);
  std::vector<std::span<const Byte>> views(blocks.begin(), blocks.end());
  sink_(stripe_, views);
  ++stripe_;
  pending_.clear();
}

}  // namespace carousel::storage
