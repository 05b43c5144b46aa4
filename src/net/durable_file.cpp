#include "net/durable_file.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <map>
#include <system_error>
#include <thread>
#include <utility>

namespace carousel::net::durable {

namespace fs = std::filesystem;

namespace {

[[noreturn]] void throw_errno(const std::string& what, const fs::path& p,
                              int err = errno) {
  throw std::system_error(err, std::generic_category(),
                          what + " " + p.string());
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

/// Opens `path` (created if needed) with `flags` and writes all of `bytes`.
void write_with(const fs::path& path, int flags,
                std::span<const std::uint8_t> bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC | flags,  // NOLINT(cppcoreguidelines-pro-type-vararg)
                        0644);
  if (fd < 0) throw_errno("open", path);
  for (std::size_t off = 0; off < bytes.size();) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) {
      const int err = errno;
      ::close(fd);
      throw_errno("write", path, err);
    }
    off += static_cast<std::size_t>(w);
  }
  if (::close(fd) != 0) throw_errno("close", path);
}

/// What a file held before a step changed it (nullopt: no such file).
struct PreImage {
  fs::path path;
  std::optional<std::vector<std::uint8_t>> bytes;
};

void restore(const PreImage& before) {
  std::error_code absent_is_fine;
  if (before.bytes)
    write_file(before.path, *before.bytes);
  else
    fs::remove(before.path, absent_is_fine);
}

thread_local std::optional<CrashPlan> t_next_plan;

}  // namespace

std::optional<std::vector<std::uint8_t>> read_file(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg)
  if (fd < 0) return std::nullopt;
  std::vector<std::uint8_t> out;
  std::uint8_t buf[1 << 16];
  ssize_t r = 0;
  while ((r = ::read(fd, buf, sizeof buf)) > 0)
    out.insert(out.end(), buf, buf + r);
  ::close(fd);
  if (r < 0) return std::nullopt;
  return out;
}

void write_file(const fs::path& path, std::span<const std::uint8_t> bytes) {
  write_with(path, O_TRUNC, bytes);
}

enum class Syncer::Step : std::uint8_t {
  kWrite, kTruncate, kSync, kDirSync, kRename, kUnlink
};

struct Syncer::Injector {
  template <typename Fn>
  void run(Step kind, const fs::path& path, const fs::path& to, Fn&& fn) {
    if (!dead && std::this_thread::get_id() != thread) return fn(false);
    if (dead || (plan.cut_after && step >= *plan.cut_after)) cut();
    if (++step == plan.fail)
      throw_errno("injected failure of step " + std::to_string(step), path,
                  EIO);
    const bool torn = kind == Step::kWrite && step == plan.tear;
    if ((kind == Step::kWrite || kind == Step::kTruncate) &&
        !unsynced.contains(path)) {
      PreImage before{path, read_file(path)};
      if (!before.bytes) renames.push_back(before);  // a file creation
      unsynced.emplace(path, std::move(before));
    }
    if (kind == Step::kRename || kind == Step::kUnlink)
      renames.push_back({path, read_file(path)});
    if (kind == Step::kRename) renames.push_back({to, read_file(to)});
    fn(torn);
    if (kind == Step::kSync || torn) unsynced.erase(path);
    if (kind == Step::kDirSync) renames.clear();
    if (plan.cut_after && step == *plan.cut_after) cut();
  }

  /// Builds the crash state once (content-level: an undone rename gives
  /// both names back their bytes), then throws for every later step.
  [[noreturn]] void cut() {
    if (!dead) {
      dead = true;
      for (const auto& [path, before] : unsynced) restore(before);
      if (plan.undo_renames)
        for (auto it = renames.rbegin(); it != renames.rend(); ++it)
          restore(*it);
    }
    throw Crash("injected crash after durable step " + std::to_string(step));
  }

  const CrashPlan plan;
  const decltype(std::this_thread::get_id()) thread =
      std::this_thread::get_id();
  std::uint32_t step = 0;
  bool dead = false;
  // First pre-images of the files no fsync covered, and of the names no
  // directory fsync covered (in step order).
  std::map<fs::path, PreImage> unsynced;
  std::vector<PreImage> renames;
};

Syncer::Syncer(bool enabled, obs::Counter& fsyncs)
    : enabled_(enabled), fsyncs_(&fsyncs) {
  if (t_next_plan) arm(*std::exchange(t_next_plan, std::nullopt));
}

Syncer::~Syncer() = default;

void Syncer::arm(const CrashPlan& plan) {
  injector_ = std::make_unique<Injector>(plan);
}

void Syncer::disarm() { injector_.reset(); }

void Syncer::arm_next(const CrashPlan& plan) { t_next_plan = plan; }

template <typename Fn>
void Syncer::run(Step kind, const fs::path& path, const fs::path& to,
                 Fn&& fn) const {
  if (!injector_) return fn(false);
  injector_->run(kind, path, to, fn);
}

void Syncer::write(const fs::path& path,
                   std::span<const std::uint8_t> bytes) const {
  run(Step::kWrite, path, {}, [&](bool torn) {
    write_file(path, torn ? bytes.first(bytes.size() / 2) : bytes);
  });
}

void Syncer::append(const fs::path& path,
                    std::span<const std::uint8_t> bytes) const {
  run(Step::kWrite, path, {}, [&](bool torn) {
    write_with(path, O_APPEND, torn ? bytes.first(bytes.size() / 2) : bytes);
  });
}

void Syncer::truncate(const fs::path& path, std::uint64_t size) const {
  run(Step::kTruncate, path, {}, [&](bool) {
    if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0)
      throw_errno("truncate", path);
  });
}

bool Syncer::unlink(const fs::path& path) const {
  bool existed = true;
  run(Step::kUnlink, path, {}, [&](bool) {
    existed = ::unlink(path.c_str()) == 0;
    if (!existed && errno != ENOENT) throw_errno("unlink", path);
  });
  return existed;
}

void Syncer::sync_path(const fs::path& path, bool dir) const {
  run(dir ? Step::kDirSync : Step::kSync, path, {}, [&](bool) {
    if (!enabled_) return;
    const int fd = ::open(path.c_str(),  // NOLINT(cppcoreguidelines-pro-type-vararg)
                          O_RDONLY | O_CLOEXEC | (dir ? O_DIRECTORY : 0));
    if (fd < 0) throw_errno("open for fsync", path);
    const int rc = ::fsync(fd);
    const int err = errno;
    ::close(fd);
    if (rc != 0) throw_errno("fsync", path, err);
    fsyncs_->inc();
  });
}

void Syncer::publish(const fs::path& from, const fs::path& to) const {
  // Bytes reach stable storage before the rename makes them reachable.
  sync_file(from);
  run(Step::kRename, from, to, [&](bool) {
    std::error_code ec;
    fs::rename(from, to, ec);
    if (ec) throw fs::filesystem_error("rename", from, to, ec);
  });
}

void Syncer::quarantine(const fs::path& path,
                        const fs::path& quarantine_dir) const {
  // Moved, never deleted: a damaged file is evidence.
  publish(path, free_name(quarantine_dir, path.filename().string()));
}

void Syncer::quarantine_bytes(const fs::path& quarantine_dir,
                              const std::string& name,
                              std::span<const std::uint8_t> bytes) const {
  const fs::path dst = free_name(quarantine_dir, name);
  write(dst, bytes);
  sync_file(dst);
  sync_dir(quarantine_dir);
}

}  // namespace carousel::net::durable
