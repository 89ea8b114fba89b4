#include "support/file_identity.hpp"

#include <sys/stat.h>

namespace tir {

namespace {

FileIdentity from_stat(const struct stat& st) {
  FileIdentity id;
  id.device = static_cast<std::uint64_t>(st.st_dev);
  id.inode = static_cast<std::uint64_t>(st.st_ino);
  id.size = static_cast<std::uint64_t>(st.st_size);
  id.mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
                static_cast<std::int64_t>(st.st_mtim.tv_nsec);
  id.directory = S_ISDIR(st.st_mode);
  return id;
}

}  // namespace

std::string FileIdentity::key() const {
  return std::to_string(device) + ':' + std::to_string(inode) + ':' +
         std::to_string(size) + ':' + std::to_string(mtime_ns);
}

std::optional<FileIdentity> stat_identity(const std::filesystem::path& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return std::nullopt;
  return from_stat(st);
}

std::optional<FileIdentity> fd_identity(int fd) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) return std::nullopt;
  return from_stat(st);
}

}  // namespace tir
