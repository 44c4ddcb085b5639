#include "core/artifact_disk.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <system_error>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include "support/fault.h"

namespace octopocs::core {

namespace {

// Index file: 12-byte header, then fixed 40-byte records.
//   header: "OCTODISK" (8) + version u32
//   record: magic u32 | key.hi u64 | key.lo u64 | offset u64 |
//           length u32 | checksum u64
constexpr char kIndexMagic[8] = {'O', 'C', 'T', 'O', 'D', 'I', 'S', 'K'};
constexpr std::uint32_t kIndexVersion = 1;
constexpr std::uint32_t kRecordMagic = 0x4F435849;  // "OCXI"
constexpr std::size_t kHeaderBytes = 12;
constexpr std::size_t kRecordBytes = 40;

std::uint64_t Fnv1a(ByteView data) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

void PutU32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void PutU64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint32_t GetU32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t GetU64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

}  // namespace

#ifndef _WIN32

namespace {

bool WriteAllFd(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n <= 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::uint64_t FileSize(int fd) {
  struct stat st;
  return ::fstat(fd, &st) == 0 ? static_cast<std::uint64_t>(st.st_size) : 0;
}

// Makes a heal durable: the truncation/rewrite reaches stable storage,
// and so does the containing directory entry. Best effort — failure
// here degrades durability, never correctness, so heals proceed anyway.
void FsyncFileAndDir(int fd, const std::string& dir) {
  ::fsync(fd);
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    ::fsync(dir_fd);
    ::close(dir_fd);
  }
}

}  // namespace

std::unique_ptr<DiskArtifactStore> DiskArtifactStore::Open(
    const std::string& dir, std::string* error) {
  // Missing parents are created too: --cache-dir may name a fresh
  // nested path.
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) {
      *error = "cannot create cache dir " + dir + ": " + ec.message();
    }
    return nullptr;
  }
  const std::string segment_path = dir + "/segments.dat";
  const std::string index_path = dir + "/index.dat";
  const int seg_fd = ::open(segment_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (seg_fd < 0) {
    if (error != nullptr) {
      *error = "cannot open " + segment_path + ": " + std::strerror(errno);
    }
    return nullptr;
  }
  const int idx_fd = ::open(index_path.c_str(), O_RDWR | O_CREAT, 0644);
  if (idx_fd < 0) {
    if (error != nullptr) {
      *error = "cannot open " + index_path + ": " + std::strerror(errno);
    }
    ::close(seg_fd);
    return nullptr;
  }

  std::unique_ptr<DiskArtifactStore> store(new DiskArtifactStore());
  store->segment_fd_ = seg_fd;
  store->index_fd_ = idx_fd;
  store->segment_bytes_ = FileSize(seg_fd);
  // Appends below go through write(), so the segment fd must sit at its
  // end even on the fresh-index paths — a non-empty segment under an
  // empty index (crash between payload and index write) would otherwise
  // be silently overwritten from offset zero.
  if (::lseek(seg_fd, 0, SEEK_END) < 0) {
    if (error != nullptr) *error = "cannot seek artifact segment file";
    return nullptr;
  }

  const std::uint64_t index_bytes = FileSize(idx_fd);
  if (index_bytes == 0) {
    // Fresh store: write the header.
    std::uint8_t header[kHeaderBytes];
    std::memcpy(header, kIndexMagic, sizeof kIndexMagic);
    PutU32(header + 8, kIndexVersion);
    if (!WriteAllFd(idx_fd, header, sizeof header)) {
      if (error != nullptr) *error = "cannot write index header";
      return nullptr;
    }
    ::fsync(idx_fd);
    return store;
  }

  // Replay an existing index. A header shorter than kHeaderBytes is a
  // torn creation — treat the whole file as the torn tail and rewrite.
  std::uint8_t header[kHeaderBytes];
  if (index_bytes < kHeaderBytes ||
      ::pread(idx_fd, header, sizeof header, 0) !=
          static_cast<ssize_t>(sizeof header)) {
    if (::ftruncate(idx_fd, 0) != 0 ||
        ::lseek(idx_fd, 0, SEEK_SET) < 0) {
      if (error != nullptr) *error = "cannot heal torn index header";
      return nullptr;
    }
    std::memcpy(header, kIndexMagic, sizeof kIndexMagic);
    PutU32(header + 8, kIndexVersion);
    if (!WriteAllFd(idx_fd, header, sizeof header)) {
      if (error != nullptr) *error = "cannot rewrite index header";
      return nullptr;
    }
    FsyncFileAndDir(idx_fd, dir);
    ++store->stats_.healed_records;
    return store;
  }
  if (std::memcmp(header, kIndexMagic, sizeof kIndexMagic) != 0 ||
      GetU32(header + 8) != kIndexVersion) {
    if (error != nullptr) {
      *error = "unrecognized artifact index header in " + index_path;
    }
    return nullptr;
  }

  std::uint64_t valid_bytes = kHeaderBytes;
  std::uint8_t rec[kRecordBytes];
  for (std::uint64_t at = kHeaderBytes; at + kRecordBytes <= index_bytes;
       at += kRecordBytes) {
    if (::pread(idx_fd, rec, sizeof rec, static_cast<off_t>(at)) !=
        static_cast<ssize_t>(sizeof rec)) {
      break;  // unreadable tail — healed below
    }
    if (GetU32(rec) != kRecordMagic) {
      // A non-record where a record should be. Tolerable only as the
      // tail (a torn write); garbage followed by more records means the
      // file was corrupted in place — refuse it like the journal does.
      if (at + kRecordBytes < index_bytes) {
        if (error != nullptr) {
          *error = "malformed artifact index record at offset " +
                   std::to_string(at);
        }
        return nullptr;
      }
      break;
    }
    IndexEntry entry;
    const ArtifactKey key{GetU64(rec + 4), GetU64(rec + 12)};
    entry.offset = GetU64(rec + 20);
    entry.length = GetU32(rec + 28);
    entry.checksum = GetU64(rec + 32);
    // A record pointing past the segment's end means the index record
    // survived but its payload write did not (or the segment was
    // truncated): drop it and everything after.
    if (entry.offset + entry.length > store->segment_bytes_) break;
    store->entries_[key] = entry;
    valid_bytes = at + kRecordBytes;
  }

  const std::uint64_t tail = index_bytes - valid_bytes;
  if (tail != 0) {
    if (::ftruncate(idx_fd, static_cast<off_t>(valid_bytes)) != 0) {
      if (error != nullptr) {
        *error = "cannot heal torn index tail: " +
                 std::string(std::strerror(errno));
      }
      return nullptr;
    }
    // Without this, a power cut after the heal could resurrect the torn
    // bytes underneath records appended since — the same write-ahead
    // discipline the journal's Resume follows.
    FsyncFileAndDir(idx_fd, dir);
    store->stats_.healed_records +=
        (tail + kRecordBytes - 1) / kRecordBytes;
  }
  if (::lseek(idx_fd, 0, SEEK_END) < 0 ||
      ::lseek(seg_fd, 0, SEEK_END) < 0) {
    if (error != nullptr) *error = "cannot seek artifact store files";
    return nullptr;
  }
  store->stats_.loaded_records = store->entries_.size();
  return store;
}

DiskArtifactStore::~DiskArtifactStore() {
  Flush();
  if (segment_fd_ >= 0) ::close(segment_fd_);
  if (index_fd_ >= 0) ::close(index_fd_);
}

bool DiskArtifactStore::Put(const ArtifactKey& key, ByteView payload) {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(key) != 0) return true;  // idempotent
  if (support::fault::Poll(support::FaultSite::kDiskStoreWrite)) {
    ++stats_.store_errors;
    return false;
  }
  // Write-ahead ordering: the payload is durable before the index ever
  // points at it, so a crash between the two leaves an orphaned blob,
  // never a dangling pointer.
  if (!WriteAllFd(segment_fd_, payload.data(), payload.size())) {
    ++stats_.store_errors;
    return false;
  }
  ::fsync(segment_fd_);

  IndexEntry entry;
  entry.offset = segment_bytes_;
  entry.length = static_cast<std::uint32_t>(payload.size());
  entry.checksum = Fnv1a(payload);
  segment_bytes_ += payload.size();

  std::uint8_t rec[kRecordBytes];
  PutU32(rec, kRecordMagic);
  PutU64(rec + 4, key.hi);
  PutU64(rec + 12, key.lo);
  PutU64(rec + 20, entry.offset);
  PutU32(rec + 28, entry.length);
  PutU64(rec + 32, entry.checksum);
  if (!WriteAllFd(index_fd_, rec, sizeof rec)) {
    ++stats_.store_errors;
    return false;  // orphaned payload; harmless, reclaimed never
  }
  ::fsync(index_fd_);
  entries_[key] = entry;
  ++stats_.stores;
  return true;
}

std::optional<Bytes> DiskArtifactStore::Get(const ArtifactKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return std::nullopt;
  }
  Bytes payload(it->second.length);
  const ssize_t n =
      ::pread(segment_fd_, payload.data(), payload.size(),
              static_cast<off_t>(it->second.offset));
  if (n != static_cast<ssize_t>(payload.size()) ||
      Fnv1a(payload) != it->second.checksum) {
    // Bit rot / a hand-truncated segment: never serve it, and forget
    // the entry so later lookups miss cheaply.
    entries_.erase(it);
    ++stats_.corrupt_drops;
    ++stats_.misses;
    return std::nullopt;
  }
  ++stats_.hits;
  return payload;
}

bool DiskArtifactStore::Contains(const ArtifactKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(key) != 0;
}

void DiskArtifactStore::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  if (segment_fd_ >= 0) ::fsync(segment_fd_);
  if (index_fd_ >= 0) ::fsync(index_fd_);
}

#else  // _WIN32

std::unique_ptr<DiskArtifactStore> DiskArtifactStore::Open(
    const std::string&, std::string* error) {
  if (error != nullptr) *error = "the disk artifact store requires POSIX";
  return nullptr;
}
DiskArtifactStore::~DiskArtifactStore() = default;
bool DiskArtifactStore::Put(const ArtifactKey&, ByteView) { return false; }
std::optional<Bytes> DiskArtifactStore::Get(const ArtifactKey&) {
  return std::nullopt;
}
bool DiskArtifactStore::Contains(const ArtifactKey&) const { return false; }
void DiskArtifactStore::Flush() {}

#endif

DiskArtifactStore::Stats DiskArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t DiskArtifactStore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace octopocs::core
