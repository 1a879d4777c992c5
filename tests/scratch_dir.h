#pragma once
// Per-test scratch directories for tests that write files.
//
// ctest runs every gtest case as its own process, in parallel under -j. A
// directory named after a fixture (or a fixed filename in TempDir()) is
// then shared by concurrent cases, and one case's cleanup deletes another
// case's live files. scratch_dir() names the directory after the running
// test (suite.name) and the process id, so concurrent cases, and repeated
// runs of one case, never share it. The process that created a directory
// removes it when it exits; forked children that leave through _exit (the
// chaos suite's kill sites) leave it to their parent.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace tsv::testutil {

namespace detail {

/// "suite.name" of the running test, shortened so that a daemon socket
/// inside the directory stays within sun_path's 108 bytes: names over 40
/// characters keep their first 31 and a hash of the whole name.
inline std::string test_tag() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? std::string("global")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  constexpr std::size_t kMax = 40;
  if (name.size() > kMax) {
    std::uint64_t h = 1469598103934665603ull;
    for (const char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    char hex[9];
    std::snprintf(hex, sizeof(hex), "%08x",
                  static_cast<unsigned>(h ^ (h >> 32)));
    name = name.substr(0, kMax - 9) + "~" + hex;
  }
  return name;
}

/// Directories this process created; removed at exit by their creator.
struct Registry {
  pid_t owner = ::getpid();
  std::vector<std::string> dirs;
  ~Registry() {
    if (::getpid() != owner) return;
    std::error_code ec;
    for (const std::string& dir : dirs) std::filesystem::remove_all(dir, ec);
  }
};

inline Registry& registry() {
  static Registry r;
  return r;
}

inline std::string make_dir(const std::string& tag, bool wipe) {
  std::string base = ::testing::TempDir();
  if (!base.empty() && base.back() != '/') base += '/';
  const std::string dir = base + "tsv_" + test_tag() + "_" +
                          std::to_string(::getpid()) + "_" + tag;
  if (wipe) std::filesystem::remove_all(dir);
  if (std::filesystem::create_directories(dir)) registry().dirs.push_back(dir);
  return dir;
}

}  // namespace detail

/// A fresh, empty directory unique to the running test and process.
/// `tag` tells apart several directories of one test.
inline std::string scratch_dir(const std::string& tag) {
  return detail::make_dir(tag, /*wipe=*/true);
}

/// A path for file `name` in the running test's own directory (created on
/// first use and kept for the rest of the test, so a test can write a file
/// and read it back through two calls).
inline std::string scratch_file(const std::string& name) {
  return detail::make_dir("files", /*wipe=*/false) + "/" + name;
}

}  // namespace tsv::testutil
