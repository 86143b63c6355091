// Keyed, crash-safe byte store behind the serve result memo (--store_dir).
//
// One value per key, stored as a single file in the store directory
// (keys are sanitized to a filesystem-safe charset). Commits are atomic:
// bytes are written to a uniquely named temp file in the same directory,
// flushed and fsync'd, then renamed over the final path — a reader (or a
// restarted server) therefore only ever sees absent or complete values,
// never a torn write, even across SIGKILL. commit() is safe to call
// concurrently from several threads (per-call unique temp names; rename is
// atomic), so two worker slots memoizing the same job leave one whole value.
//
// The store does not interpret what it holds: load() returns raw bytes, and
// the caller validates them (ResultMemo unframes with binary_io.hpp and
// treats any failing check as a miss).
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace ckp {

class ArtifactStore {
 public:
  // Creates `dir` (and parents) if missing.
  explicit ArtifactStore(std::string dir);

  const std::string& dir() const { return dir_; }

  // Keys map to file names: [A-Za-z0-9._-] pass through, anything else
  // becomes '_'. Collisions after sanitization are the caller's problem;
  // the memo builds keys from this charset only.
  static std::string sanitize_key(const std::string& key);
  std::string path_for(const std::string& key) const;

  bool has(const std::string& key) const;

  // The committed bytes for `key`, or nullopt when absent.
  std::optional<std::string> load(const std::string& key) const;

  // Atomically commits `bytes` under `key`, replacing any previous value.
  void commit(const std::string& key, std::string_view bytes) const;

 private:
  std::string dir_;
};

}  // namespace ckp
