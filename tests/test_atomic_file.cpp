#include "util/atomic_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

namespace mdmesh {
namespace {

// A power cut between the rename and the directory fsync cannot be staged
// in a test; these check what a live process can observe.

std::string FreshDir(const std::string& name) {
  const std::string dir = testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

TEST(AtomicFileTest, RoundTrip) {
  const std::string path = FreshDir("atomic_round_trip") + "/out.bin";
  const std::string data("bytes\0with a nul\n", 17);
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, data, &error)) << error;
  EXPECT_EQ(ReadFile(path), data);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicFileTest, ReplacesExistingFile) {
  const std::string path = FreshDir("atomic_replace") + "/out.txt";
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, std::string("a much longer first body"),
                              &error))
      << error;
  ASSERT_TRUE(WriteFileAtomic(path, "short", 5, &error)) << error;
  EXPECT_EQ(ReadFile(path), "short");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicFileTest, OverwritesAnExistingTempAndCutsItToLength) {
  const std::string path = FreshDir("atomic_stale_temp") + "/out.txt";
  std::ofstream(path + ".tmp") << "a much longer stale temp body";
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, "short", 5, &error)) << error;
  EXPECT_EQ(ReadFile(path), "short");
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(AtomicFileTest, WritesPiecesInOrder) {
  const std::string path = FreshDir("atomic_pieces") + "/out.txt";
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(path, {"head,", "", "body,", "tail"}, &error))
      << error;
  EXPECT_EQ(ReadFile(path), "head,body,tail");
}

TEST(AtomicFileTest, DeferredDirectorySyncStillReplacesTheFile) {
  const std::string dir = FreshDir("atomic_deferred");
  std::string error;
  ASSERT_TRUE(WriteFileAtomic(dir + "/a.txt", std::string("first"), &error,
                              DirSync::kDeferred))
      << error;
  ASSERT_TRUE(WriteFileAtomic(dir + "/b.txt", {"sec", "ond"}, &error,
                              DirSync::kDeferred))
      << error;
  ASSERT_TRUE(SyncDirectory(dir, &error)) << error;
  EXPECT_EQ(ReadFile(dir + "/a.txt"), "first");
  EXPECT_EQ(ReadFile(dir + "/b.txt"), "second");
  EXPECT_FALSE(std::filesystem::exists(dir + "/a.txt.tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir + "/b.txt.tmp"));
}

TEST(AtomicFileTest, MissingDirectoryFailsAndLeavesNoTemp) {
  const std::string dir = FreshDir("atomic_missing") + "/absent";
  const std::string path = dir + "/out.txt";
  std::string error;
  EXPECT_FALSE(WriteFileAtomic(path, std::string("x"), &error));
  EXPECT_NE(error.find(path + ".tmp"), std::string::npos) << error;
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_FALSE(std::filesystem::exists(dir));
}

TEST(AtomicFileTest, SyncsParentOfFileOrDirectory) {
  const std::string dir = FreshDir("atomic_parent");
  std::filesystem::create_directories(dir + "/child");
  std::string error;
  EXPECT_TRUE(SyncDirectory(dir, &error)) << error;
  EXPECT_TRUE(SyncParentDirectory(dir + "/child", &error)) << error;
  EXPECT_TRUE(SyncParentDirectory(dir + "/child/", &error)) << error;
  EXPECT_TRUE(SyncParentDirectory("relative_name", &error)) << error;
  EXPECT_FALSE(SyncDirectory(dir + "/absent", &error));
  EXPECT_FALSE(SyncParentDirectory(dir + "/absent/child", &error));
}

}  // namespace
}  // namespace mdmesh
