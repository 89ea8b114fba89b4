// File identity: what one stat(2) says about a file, standing in for its
// contents.
//
// Device and inode name the file whatever path spells it (`tr`, `./tr/`, a
// symlink or a hard link all agree); size and modification time change when
// it is rewritten in place. The trace pass records the identity of each file
// it indexes and the serving layer keys its caches by identity, so a
// rewritten input is read again instead of answered from a stale decode.
//
// A stat cannot see a rewrite that keeps the size and lands within one tick
// of the filesystem's modification-time clock; DESIGN.md ("Service layer")
// spells out that limit.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>

namespace tir {

struct FileIdentity {
  std::uint64_t device = 0;
  std::uint64_t inode = 0;
  std::uint64_t size = 0;
  std::int64_t mtime_ns = 0;
  bool directory = false;

  friend bool operator==(const FileIdentity&, const FileIdentity&) = default;

  /// "device:inode:size:mtime_ns", a cache-key fragment.
  std::string key() const;
};

/// stat(2) of `path`, following symlinks; nullopt when it fails.
std::optional<FileIdentity> stat_identity(const std::filesystem::path& path);

/// fstat(2) of an open descriptor; nullopt when it fails.
std::optional<FileIdentity> fd_identity(int fd);

}  // namespace tir
