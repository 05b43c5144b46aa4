#include "storage/erasure_file.h"

#include <algorithm>
#include <stdexcept>

namespace carousel::storage {

ErasureFile::ErasureFile(const Carousel& code, std::span<const Byte> file,
                         std::size_t block_bytes)
    : code_(&code), file_bytes_(file.size()), block_bytes_(block_bytes) {
  if (block_bytes == 0 || block_bytes % code.s() != 0)
    throw std::invalid_argument(
        "block_bytes must be a positive multiple of the code's "
        "subpacketization");
  const std::size_t stripe_data = code.k() * block_bytes;
  stripes_ = (file.size() + stripe_data - 1) / stripe_data;
  if (stripes_ == 0) stripes_ = 1;  // an empty file still occupies one stripe
  padded_file_.assign(stripes_ * stripe_data, 0);
  std::copy(file.begin(), file.end(), padded_file_.begin());
  store_.assign(stripes_ * code.n() * block_bytes, 0);
  available_.assign(stripes_ * code.n(), true);
  for (std::size_t s = 0; s < stripes_; ++s) {
    std::vector<std::span<Byte>> blocks;
    blocks.reserve(code_->n());
    for (std::size_t i = 0; i < code_->n(); ++i)
      blocks.push_back(block_mut(s, i));
    code_->encode(
        std::span<const Byte>(padded_file_.data() + s * stripe_data,
                              stripe_data),
        blocks);
  }
}

std::span<const Byte> ErasureFile::block(std::size_t stripe,
                                         std::size_t index) const {
  return {store_.data() + slot(stripe, index) * block_bytes_, block_bytes_};
}

std::span<Byte> ErasureFile::block_mut(std::size_t stripe, std::size_t index) {
  return {store_.data() + slot(stripe, index) * block_bytes_, block_bytes_};
}

void ErasureFile::set_block_available(std::size_t stripe, std::size_t index,
                                      bool ok) {
  available_[slot(stripe, index)] = ok;
}

bool ErasureFile::block_available(std::size_t stripe,
                                  std::size_t index) const {
  return available_[slot(stripe, index)];
}

void ErasureFile::fail_block_index(std::size_t index) {
  for (std::size_t s = 0; s < stripes_; ++s) set_block_available(s, index, false);
}

std::vector<Byte> ErasureFile::read_all(IoStats* stats) const {
  const std::size_t stripe_data = code_->k() * block_bytes_;
  std::vector<Byte> out(stripes_ * stripe_data);
  IoStats total;
  for (std::size_t s = 0; s < stripes_; ++s) {
    const IoStats st = code_->decode_stripe(
        stripe_views(s), std::span<Byte>(out.data() + s * stripe_data,
                                         stripe_data));
    total.bytes_read += st.bytes_read;
    total.sources += st.sources;
  }
  out.resize(file_bytes_);
  if (stats) *stats = total;
  return out;
}

IoStats ErasureFile::repair_block(std::size_t stripe, std::size_t index) {
  if (block_available(stripe, index))
    throw std::invalid_argument("block is not missing");
  auto stats =
      code_->repair_stripe(index, stripe_views(stripe), block_mut(stripe, index));
  set_block_available(stripe, index, true);
  return stats;
}

std::vector<std::span<const Byte>> ErasureFile::stripe_views(
    std::size_t stripe) const {
  std::vector<std::span<const Byte>> views(code_->n());
  for (std::size_t i = 0; i < code_->n(); ++i)
    if (block_available(stripe, i)) views[i] = block(stripe, i);
  return views;
}

bool ErasureFile::verify() const {
  const std::size_t stripe_data = code_->k() * block_bytes_;
  std::vector<Byte> fresh(code_->n() * block_bytes_);
  for (std::size_t s = 0; s < stripes_; ++s) {
    std::vector<std::span<Byte>> blocks;
    for (std::size_t i = 0; i < code_->n(); ++i)
      blocks.emplace_back(fresh.data() + i * block_bytes_, block_bytes_);
    code_->encode(std::span<const Byte>(padded_file_.data() + s * stripe_data,
                                        stripe_data),
                  blocks);
    for (std::size_t i = 0; i < code_->n(); ++i) {
      if (!block_available(s, i)) continue;
      auto stored = block(s, i);
      if (!std::equal(stored.begin(), stored.end(),
                      fresh.begin() + static_cast<std::ptrdiff_t>(
                                          i * block_bytes_)))
        return false;
    }
  }
  return true;
}

}  // namespace carousel::storage
