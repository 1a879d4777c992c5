#include "io/atomic_file.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/error.h"
#include "numeric/fault_injection.h"

namespace tsv::io {
namespace {

[[noreturn]] void write_error(const std::string& path,
                              const std::string& what) {
  throw IoCorruptionError("atomic write '" + path + "': " + what);
}

/// RAII for the temp file: closes and unlinks on destruction unless the
/// rename succeeded (release()).
class TempFile {
 public:
  explicit TempFile(std::string path)
      : path_(std::move(path)), f_(std::fopen(path_.c_str(), "wb")) {}
  ~TempFile() {
    if (f_ != nullptr) std::fclose(f_);
    if (!released_) std::remove(path_.c_str());
  }
  TempFile(const TempFile&) = delete;
  TempFile& operator=(const TempFile&) = delete;

  std::FILE* get() const { return f_; }
  const std::string& path() const { return path_; }
  void close() {
    if (f_ != nullptr && std::fclose(f_) != 0) {
      f_ = nullptr;
      write_error(path_, "close failed");
    }
    f_ = nullptr;
  }
  void release() { released_ = true; }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  bool released_ = false;
};

}  // namespace

void atomic_write_file(const std::string& path, const std::string& bytes,
                       bool durable) {
  TempFile tmp(path + ".tmp");
  if (tmp.get() == nullptr) write_error(path, "cannot open temp file");

  if (fault::should_fire(fault::Site::kSnapshotWriteFail)) {
    // Simulated crash mid-write: leave a torn temp file and fail before the
    // rename, so the target must survive untouched.
    std::fwrite(bytes.data(), 1, bytes.size() / 2, tmp.get());
    write_error(path, "injected write failure (fault harness)");
  }

  if (std::fwrite(bytes.data(), 1, bytes.size(), tmp.get()) != bytes.size())
    write_error(path, "short write to temp file");
  if (std::fflush(tmp.get()) != 0) write_error(path, "flush failed");
  // Durability before the rename: a rename that lands while the data blocks
  // are still in the page cache could survive a *power loss* as an empty
  // file. Against process death alone the flush + rename already suffice.
  if (durable && ::fsync(::fileno(tmp.get())) != 0)
    write_error(path, "fsync failed");
  tmp.close();

  if (std::rename(tmp.path().c_str(), path.c_str()) != 0)
    write_error(path, "rename failed");
  tmp.release();
}

void atomic_append_line(const std::string& path, const std::string& line) {
  // Without the lock, two appenders would read the same old contents and
  // the second rename would drop the first one's line. The lock is advisory
  // and best effort: an unlockable directory falls back to the plain path.
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  struct DirLock {
    int fd;
    ~DirLock() {
      if (fd >= 0) ::close(fd);  // closing releases the flock
    }
  } dir_lock{dir_fd};
  if (dir_fd >= 0) ::flock(dir_fd, LOCK_EX);
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      contents = std::move(buf).str();
    }
  }
  contents += line;
  contents += '\n';
  atomic_write_file(path, contents);
}

}  // namespace tsv::io
