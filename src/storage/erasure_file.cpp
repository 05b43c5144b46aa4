#include "storage/erasure_file.h"

#include <algorithm>
#include <stdexcept>

namespace carousel::storage {

ErasureFile::ErasureFile(const Carousel& code, std::span<const Byte> file,
                         std::size_t block_bytes)
    : code_(&code),
      file_bytes_(file.size()),
      block_bytes_(block_bytes),
      stripes_(code.stripes_for(file.size(), block_bytes)),
      store_(stripes_ * code.n() * block_bytes),
      available_(stripes_ * code.n(), true) {
  std::vector<std::span<Byte>> blocks(code.n());
  std::vector<Byte> pad;
  for (std::size_t s = 0; s < stripes_; ++s) {
    for (std::size_t i = 0; i < code.n(); ++i) blocks[i] = block_mut(s, i);
    code.encode_stripe(file, s, blocks, pad);
  }
}

ErasureFile::ErasureFile(const Carousel& code, std::size_t file_bytes,
                         std::size_t block_bytes,
                         std::span<const std::vector<Byte>> block_files)
    : code_(&code),
      file_bytes_(file_bytes),
      block_bytes_(block_bytes),
      stripes_(code.stripes_for(file_bytes, block_bytes)),
      store_(stripes_ * code.n() * block_bytes),
      available_(stripes_ * code.n(), false) {
  const std::size_t per_file = stripes_ * block_bytes;
  for (std::size_t i = 0; i < std::min(code.n(), block_files.size()); ++i) {
    if (block_files[i].size() != per_file) continue;
    std::copy(block_files[i].begin(), block_files[i].end(),
              store_.begin() + static_cast<std::ptrdiff_t>(i * per_file));
    std::fill_n(available_.begin() + static_cast<std::ptrdiff_t>(i * stripes_),
                stripes_, true);
  }
}

std::span<const Byte> ErasureFile::block(std::size_t stripe,
                                         std::size_t index) const {
  return {store_.data() + slot(stripe, index) * block_bytes_, block_bytes_};
}

std::span<const Byte> ErasureFile::block_file(std::size_t index) const {
  return {store_.data() + slot(0, index) * block_bytes_,
          stripes_ * block_bytes_};
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

IoStats ErasureFile::repair_block_index(std::size_t index) {
  fail_block_index(index);
  IoStats total;
  for (std::size_t s = 0; s < stripes_; ++s) {
    const IoStats st = repair_block(s, index);
    total.bytes_read += st.bytes_read;
    total.sources += st.sources;
  }
  return total;
}

std::vector<std::span<const Byte>> ErasureFile::stripe_views(
    std::size_t stripe) const {
  std::vector<std::span<const Byte>> views(code_->n());
  for (std::size_t i = 0; i < code_->n(); ++i)
    if (block_available(stripe, i)) views[i] = block(stripe, i);
  return views;
}

bool ErasureFile::verify(std::span<const Byte> file) const {
  if (file.size() != file_bytes_) return false;
  std::vector<Byte> fresh(code_->n() * block_bytes_);
  std::vector<std::span<Byte>> blocks;
  for (std::size_t i = 0; i < code_->n(); ++i)
    blocks.emplace_back(fresh.data() + i * block_bytes_, block_bytes_);
  std::vector<Byte> pad;
  for (std::size_t s = 0; s < stripes_; ++s) {
    code_->encode_stripe(file, s, blocks, pad);
    for (std::size_t i = 0; i < code_->n(); ++i)
      if (block_available(s, i) && !std::ranges::equal(block(s, i), blocks[i]))
        return false;
  }
  return true;
}

}  // namespace carousel::storage
