// bench/scratch — the private scratch directory a bench keeps its files
// in, so a run leaves nothing behind in the shared temp directory.
#pragma once

#include <string>

namespace gs::bench {

/// A private `$TMPDIR/gs_<tag>.XXXXXX` directory (TMPDIR defaults to
/// /tmp) holding a bench's dataset, map files and unix sockets. It is
/// removed with everything in it when the object is destroyed, on a
/// return and on an exception unwinding through it alike.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }
  /// path()/name.
  std::string file(const std::string& name) const;

 private:
  std::string path_;
};

}  // namespace gs::bench
