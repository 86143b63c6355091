// The memo's byte store: the artifact frame (magic/version/kind/length/
// checksum validation) and the keyed ArtifactStore itself (atomic commit,
// load, sanitized keys, concurrent commits).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "store/artifact_store.hpp"
#include "store/binary_io.hpp"
#include "util/check.hpp"

namespace ckp {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

// ---------------------------------------------------------------------------
// Artifact frame.

TEST(BinaryIo, FrameValidatesEverything) {
  const std::string framed = frame_artifact(fourcc("TEST"), 3, "payload");
  EXPECT_EQ(unframe_artifact(framed, fourcc("TEST"), 3), "payload");
  // Wrong kind, wrong version.
  EXPECT_THROW(unframe_artifact(framed, fourcc("NOPE"), 3), CheckFailure);
  EXPECT_THROW(unframe_artifact(framed, fourcc("TEST"), 4), CheckFailure);
  // Bad magic.
  std::string bad_magic = framed;
  bad_magic[0] = 'X';
  EXPECT_THROW(unframe_artifact(bad_magic, fourcc("TEST"), 3), CheckFailure);
  // Truncated.
  EXPECT_THROW(
      unframe_artifact(std::string_view(framed).substr(0, framed.size() - 1),
                       fourcc("TEST"), 3),
      CheckFailure);
  EXPECT_THROW(unframe_artifact("CK", fourcc("TEST"), 3), CheckFailure);
  // Every single-byte payload corruption is caught by the checksum.
  for (std::size_t i = 20; i < framed.size() - 8; ++i) {
    std::string corrupt = framed;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x5A);
    EXPECT_THROW(unframe_artifact(corrupt, fourcc("TEST"), 3), CheckFailure)
        << "flipped byte " << i;
  }
}

// ---------------------------------------------------------------------------
// ArtifactStore.

TEST(ArtifactStore, CommitLoadHas) {
  ArtifactStore store(fresh_dir("store_basic"));
  EXPECT_FALSE(store.has("k"));
  EXPECT_FALSE(store.load("k").has_value());
  store.commit("k", "bytes!");
  EXPECT_TRUE(store.has("k"));
  EXPECT_EQ(store.load("k").value(), "bytes!");
  // Overwrite.
  store.commit("k", "other");
  EXPECT_EQ(store.load("k").value(), "other");
}

TEST(ArtifactStore, SanitizesKeys) {
  EXPECT_EQ(ArtifactStore::sanitize_key("a/b c:d"), "a_b_c_d");
  EXPECT_EQ(ArtifactStore::sanitize_key("ok.key-1_2"), "ok.key-1_2");
  EXPECT_EQ(ArtifactStore::sanitize_key(""), "_");
  ArtifactStore store(fresh_dir("store_keys"));
  store.commit("../../escape", "x");
  // The file stays inside the store directory.
  EXPECT_TRUE(fs::path(store.path_for("../../escape"))
                  .lexically_normal()
                  .string()
                  .starts_with(fs::path(store.dir())
                                   .lexically_normal()
                                   .string()));
  EXPECT_EQ(store.load("../../escape").value(), "x");
}

TEST(ArtifactStore, NoTempFilesLeftAfterCommit) {
  ArtifactStore store(fresh_dir("store_tmp"));
  store.commit("a", "1");
  store.commit("b", "2");
  int files = 0;
  for (const auto& entry : fs::directory_iterator(store.dir())) {
    EXPECT_EQ(entry.path().extension(), ".ckpa") << entry.path();
    ++files;
  }
  EXPECT_EQ(files, 2);
}

TEST(ArtifactStore, ConcurrentCommitsStayWhole) {
  // Several serve worker slots can memoize the same job under one key, so
  // commits race on one final path while others write distinct keys, and a
  // memo lookup may read that key mid-race.
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 50;
  const std::uint32_t kind = fourcc("TEST");
  ArtifactStore store(fresh_dir("store_concurrent"));
  const auto own_payload = [](int t, int i) {
    return "thread" + std::to_string(t) + ".key" + std::to_string(i) + "." +
           std::string(512, static_cast<char>('a' + t));
  };
  const auto shared_payload = [](int t) {
    return "shared.thread" + std::to_string(t) + "." +
           std::string(4096 + 64 * t, static_cast<char>('A' + t));
  };

  const auto is_shared_payload = [&](std::string_view payload) {
    for (int t = 0; t < kThreads; ++t) {
      if (payload == shared_payload(t)) return true;
    }
    return false;
  };
  // A load that sees the shared key must see one whole written value.
  const auto shared_is_whole = [&] {
    const auto bytes = store.load("shared");
    if (!bytes) return false;
    try {
      return is_shared_payload(unframe_artifact(*bytes, kind, 1));
    } catch (const CheckFailure&) {
      return false;
    }
  };

  std::atomic<int> torn_reads{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (int i = 0; i < kKeysPerThread; ++i) {
        store.commit("t" + std::to_string(t) + ".k" + std::to_string(i),
                     frame_artifact(kind, 1, own_payload(t, i)));
        store.commit("shared", frame_artifact(kind, 1, shared_payload(t)));
        if (!shared_is_whole()) torn_reads.fetch_add(1);
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kKeysPerThread; ++i) {
      const auto bytes =
          store.load("t" + std::to_string(t) + ".k" + std::to_string(i));
      ASSERT_TRUE(bytes.has_value()) << "thread " << t << " key " << i;
      EXPECT_EQ(unframe_artifact(*bytes, kind, 1), own_payload(t, i));
    }
  }
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_TRUE(shared_is_whole()) << "shared key holds no whole written value";

  int files = 0;
  for (const auto& entry : fs::directory_iterator(store.dir())) {
    EXPECT_EQ(entry.path().filename().string().find(".tmp."),
              std::string::npos)
        << entry.path();
    ++files;
  }
  EXPECT_EQ(files, kThreads * kKeysPerThread + 1);
}

}  // namespace
}  // namespace ckp
