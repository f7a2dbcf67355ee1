// Read-only memory-mapped files and durable atomic file publication.
//
// The persistent chain-statistics store (markov/persistent_stats.hpp) serves
// survival tables straight out of mapped generation files, and publishes new
// generations with the same write-temp + fsync + rename + directory-fsync
// discipline serve/checkpoint.cpp uses for manifests: a reader either sees
// the complete file or no file at all — never a torn tail under the final
// name (short of filesystem bugs, which the generation footer checksum
// catches at load).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace tcgrid::util {

/// A read-only mmap of a whole regular file. Move-only; the mapping lives
/// until destruction, so pointers into data() stay valid for the object's
/// lifetime (the property the persistent store's "never unmap while the
/// store lives" generation scheme is built on). The fd is closed
/// immediately after mapping — the mapping keeps the pages alive.
class MappedFile {
 public:
  MappedFile() = default;
  /// Maps `path` read-only. Throws std::runtime_error on any failure
  /// (missing file, permission, mmap). An empty file maps to size() == 0
  /// with data() == nullptr.
  explicit MappedFile(const std::string& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const char* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool mapped() const noexcept { return data_ != nullptr; }

 private:
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Durable atomic publication of `dir`/`name`: write `dir`/`name`.tmp,
/// fsync it, rename over the final name, fsync the directory. After return
/// the file is durably on disk under its final name; if the process dies at
/// any earlier point, the final name either does not exist or still holds
/// its previous content. Throws std::runtime_error on any syscall failure.
///
/// `truncate_to`: test hook — when >= 0, only the first `truncate_to` bytes
/// of `content` are written (a fault-injected short write). Combined with
/// the publish step this simulates the torn-generation states the loader
/// must reject.
void write_file_atomic(const std::string& dir, const std::string& name,
                       std::string_view content, long truncate_to = -1);

/// Names of the regular files directly under `dir` that start with `prefix`
/// and end with `suffix`, sorted ascending. A missing directory yields an
/// empty list (callers create it lazily).
[[nodiscard]] std::vector<std::string> list_dir(const std::string& dir,
                                                std::string_view prefix,
                                                std::string_view suffix);

}  // namespace tcgrid::util
