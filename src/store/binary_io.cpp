#include "store/binary_io.hpp"

#include <cstring>

#include "util/check.hpp"

namespace ckp {

namespace {

constexpr char kMagic[4] = {'C', 'K', 'P', 'A'};
// magic + version + kind + payload length.
constexpr std::size_t kHeaderBytes = 4 + 4 + 4 + 8;
constexpr std::size_t kChecksumBytes = 8;

std::uint64_t read_u64_le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::uint32_t read_u32_le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

void append_u32_le(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

void append_u64_le(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out += static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

}  // namespace

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

std::string frame_artifact(std::uint32_t kind, std::uint32_t version,
                           std::string_view payload) {
  std::string out;
  out.reserve(kHeaderBytes + payload.size() + kChecksumBytes);
  out.append(kMagic, sizeof(kMagic));
  append_u32_le(out, version);
  append_u32_le(out, kind);
  append_u64_le(out, payload.size());
  out += payload;
  append_u64_le(out, fnv1a64(payload));
  return out;
}

std::string_view unframe_artifact(std::string_view bytes, std::uint32_t kind,
                                  std::uint32_t version) {
  CKP_CHECK_MSG(bytes.size() >= kHeaderBytes + kChecksumBytes,
                "artifact truncated: " << bytes.size() << " bytes");
  CKP_CHECK_MSG(std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) == 0,
                "artifact has bad magic (not a ckp artifact)");
  const std::uint32_t got_version = read_u32_le(bytes.data() + 4);
  CKP_CHECK_MSG(got_version == version, "artifact format version "
                                            << got_version << ", expected "
                                            << version);
  const std::uint32_t got_kind = read_u32_le(bytes.data() + 8);
  CKP_CHECK_MSG(got_kind == kind, "artifact kind mismatch: got 0x"
                                      << std::hex << got_kind
                                      << ", expected 0x" << kind);
  const std::uint64_t len = read_u64_le(bytes.data() + 12);
  CKP_CHECK_MSG(bytes.size() == kHeaderBytes + len + kChecksumBytes,
                "artifact length mismatch: header says " << len
                    << " payload bytes, file has "
                    << bytes.size() - kHeaderBytes - kChecksumBytes);
  const std::string_view payload = bytes.substr(kHeaderBytes, len);
  const std::uint64_t want = read_u64_le(bytes.data() + kHeaderBytes + len);
  const std::uint64_t got = fnv1a64(payload);
  CKP_CHECK_MSG(got == want, "artifact checksum mismatch (corrupt payload)");
  return payload;
}

}  // namespace ckp
