// The frame every memoized value is stored in.
//
//   magic "CKPA" | u32 format version | u32 kind (fourcc) |
//   u64 payload length | payload bytes | u64 FNV-1a checksum of payload
//
// Every header scalar is little-endian fixed-width, so a frame is
// byte-stable across runs and platforms. unframe_artifact checks every
// field, so a truncated, torn or foreign file fails cleanly (ResultMemo
// turns that failure into a cache miss) instead of being read as a value.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ckp {

// FNV-1a over `bytes`; the checksum used by artifact frames.
std::uint64_t fnv1a64(std::string_view bytes);

// Wraps `payload` in the artifact frame described above.
std::string frame_artifact(std::uint32_t kind, std::uint32_t version,
                           std::string_view payload);

// Validates magic, kind, version, length, and checksum; returns the payload.
// Throws CheckFailure on any mismatch (truncation, corruption, wrong kind
// or version) with a message naming what failed.
std::string_view unframe_artifact(std::string_view bytes, std::uint32_t kind,
                                  std::uint32_t version);

// Four-character kind tags as u32 (e.g. fourcc("SRVM")).
constexpr std::uint32_t fourcc(const char (&tag)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(tag[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(tag[3])) << 24;
}

}  // namespace ckp
