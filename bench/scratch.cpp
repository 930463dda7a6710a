#include "bench/scratch.h"

#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/error.h"

namespace gs::bench {

ScratchDir::ScratchDir(const std::string& tag) {
  const char* tmp = std::getenv("TMPDIR");
  std::string pattern = std::string(tmp && *tmp ? tmp : "/tmp") + "/gs_" +
                        tag + ".XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) {
    throw IoError("mkdtemp(" + pattern + ") failed");
  }
  path_ = std::move(pattern);
}

ScratchDir::~ScratchDir() {
  std::error_code ec;  // a destructor must not throw; nothing to report to
  std::filesystem::remove_all(path_, ec);
}

std::string ScratchDir::file(const std::string& name) const {
  return path_ + "/" + name;
}

}  // namespace gs::bench
