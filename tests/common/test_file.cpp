#include "ecohmem/common/file.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace ecohmem::common {
namespace {

std::string read_back(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(WriteFile, WritesAndTruncates) {
  const std::string path = ::testing::TempDir() + "ecohmem_write_file.txt";
  const std::string bytes("report\0with a NUL\n", 18);
  ASSERT_TRUE(write_file(path, bytes).ok());
  EXPECT_EQ(read_back(path), bytes);
  ASSERT_TRUE(write_file(path, "short").ok());
  EXPECT_EQ(read_back(path), "short");
  std::remove(path.c_str());
}

TEST(WriteFile, UnopenablePathFails) {
  const auto s = write_file(::testing::TempDir() + "no-such-dir/x.txt", "x");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().find("cannot open for writing"), std::string::npos);
}

TEST(WriteFile, FullDeviceFailsAtFlush) {
  // /dev/full accepts the open and fails every write with ENOSPC, which
  // a buffered stream only sees when it flushes.
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto s = write_file("/dev/full", "a few bytes that fit in the stream buffer\n");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), "write failed: /dev/full");
}

}  // namespace
}  // namespace ecohmem::common
