#include "net/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <system_error>

namespace carousel::net::durable {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void throw_errno(const char* what, const fs::path& p) {
  throw std::system_error(errno, std::generic_category(),
                          std::string(what) + " " + p.string());
}

/// `dir/name`, or `dir/name.N` for the first N >= 1 not taken; creates
/// `dir` if needed.
fs::path free_name(const fs::path& dir, const std::string& name) {
  fs::create_directories(dir);
  fs::path dst = dir / name;
  for (int i = 1; fs::exists(dst); ++i)
    dst = dir / (name + "." + std::to_string(i));
  return dst;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> read_file(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) return std::nullopt;
  std::vector<std::uint8_t> out;
  std::uint8_t buf[1 << 16];
  for (;;) {
    const ssize_t r = ::read(fd, buf, sizeof buf);
    if (r < 0) {
      ::close(fd);
      return std::nullopt;
    }
    if (r == 0) break;
    out.insert(out.end(), buf, buf + r);
  }
  ::close(fd);
  return out;
}

void write_all(int fd, std::span<const std::uint8_t> bytes,
               const fs::path& path) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) throw_errno("write", path);
    off += static_cast<std::size_t>(w);
  }
}

void write_file(const fs::path& path, std::span<const std::uint8_t> bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,  // NOLINT(cppcoreguidelines-pro-type-vararg)
                        0644);
  if (fd < 0) throw_errno("open", path);
  try {
    write_all(fd, bytes, path);
  } catch (...) {
    ::close(fd);
    throw;
  }
  if (::close(fd) != 0) throw_errno("close", path);
}

void quarantine_bytes(const fs::path& quarantine_dir, const std::string& name,
                      std::span<const std::uint8_t> bytes) {
  write_file(free_name(quarantine_dir, name), bytes);
}

void Syncer::sync_path(const fs::path& path, bool dir,
                       OnSyncFailure on_failure) const {
  if (!enabled_) return;
  const int fd = ::open(path.c_str(),  // NOLINT(cppcoreguidelines-pro-type-vararg)
                        O_RDONLY | O_CLOEXEC | (dir ? O_DIRECTORY : 0));
  if (fd < 0) {
    if (on_failure == OnSyncFailure::kIgnore) return;
    throw_errno(dir ? "open dir for fsync" : "open for fsync", path);
  }
  if (::fsync(fd) != 0 && on_failure == OnSyncFailure::kThrow) {
    ::close(fd);
    throw_errno(dir ? "fsync dir" : "fsync", path);
  }
  ::close(fd);
  fsyncs_->inc();
}

void Syncer::sync_file(const fs::path& path, OnSyncFailure on_failure) const {
  sync_path(path, /*dir=*/false, on_failure);
}

void Syncer::sync_dir(const fs::path& path, OnSyncFailure on_failure) const {
  sync_path(path, /*dir=*/true, on_failure);
}

void Syncer::sync_fd(int fd, const fs::path& path) const {
  if (!enabled_) return;
  if (::fsync(fd) != 0) throw_errno("fsync", path);
  fsyncs_->inc();
}

void Syncer::publish(const fs::path& from, const fs::path& to,
                     OnSyncFailure on_failure) const {
  // The bytes must be on stable storage before the rename makes them
  // reachable under their final name — otherwise a crash could publish a
  // file whose content never hit the platter.  check_invariants.py rule 4
  // keeps this the only rename in src/.
  sync_file(from, on_failure);
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) throw fs::filesystem_error("rename", from, to, ec);
}

void Syncer::quarantine(const fs::path& path, const fs::path& quarantine_dir,
                        OnSyncFailure on_failure) const {
  // Moved, never deleted: a damaged file is evidence.
  publish(path, free_name(quarantine_dir, path.filename().string()),
          on_failure);
}

}  // namespace carousel::net::durable
