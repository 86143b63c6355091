// SIMD kernels for the engine's flat-state hot loops.
//
// The engine round loop (local/engine.hpp) spends its steady state in three
// data-parallel loops that do no algorithm work at all: assembling the
// per-chunk neighbor scratch row (index -> pointer into the flat state
// array), compacting the per-chunk halt slab out of the round's done flags,
// and compacting the active list at the round barrier. This header gives
// each of them a vectorized form plus a scalar form with *identical output*,
// so an engine run is bit-identical whichever is selected — the
// EngineOptions::simd toggle and tests/test_util_simd.cpp both rely on that.
//
// Backend selection happens at configure time, not run time: CMake probes
// the host (see the CKP_SIMD cache option) and defines exactly one of
// CKP_SIMD_AVX2 / CKP_SIMD_NEON, or neither for the scalar fallback. There
// is no runtime CPU dispatch — a binary configured for AVX2 requires an
// AVX2 host, which is the right trade for a bench repo where the builder
// and the runner are the same machine. kBackendName ("avx2"/"neon"/
// "scalar") is stamped into RunRecord provenance so numbers from different
// hosts stay interpretable.
//
// Contract shared by both compaction kernels: flags are one byte per
// position, strictly 0 or 1 (the engine writes them from bool); `dst` must
// have room for `count` entries and may alias `src` (in-place left-pack is
// legal because writes land at out <= i and full-vector stores never reach
// past the already-consumed prefix; see the comment in compact_by_flag).
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(CKP_SIMD_AVX2)
#include <immintrin.h>
#elif defined(CKP_SIMD_NEON)
#include <arm_neon.h>
#endif

namespace ckp::simd {

inline constexpr const char* kBackendName =
#if defined(CKP_SIMD_AVX2)
    "avx2";
#elif defined(CKP_SIMD_NEON)
    "neon";
#else
    "scalar";
#endif

// True when a vector backend was configured in; the engine consults this so
// EngineOptions::simd degrades to the scalar path instead of lying.
inline constexpr bool kHaveVectorBackend =
#if defined(CKP_SIMD_AVX2) || defined(CKP_SIMD_NEON)
    true;
#else
    false;
#endif

// --------------------------------------------------------------------------
// Scalar reference forms. These are the semantics; the vector forms below
// must match them bit-for-bit and the unit tests fuzz that equivalence.

// row[k] = base + idx[k] for k in [0, count): turns a node's CSR neighbor
// indices into pointers at one fixed 8-byte stride (the packed-state word
// size). Templated on the element type purely for pointer-type hygiene;
// sizeof(T) == 8 is enforced where it matters, in the engine.
template <typename T>
inline void assemble_rows8_scalar(const T** row, const std::int32_t* idx,
                                  std::size_t count, const T* base) {
  for (std::size_t k = 0; k < count; ++k) row[k] = base + idx[k];
}

// Left-packs src[i] (i in [0, count)) with flags[i] == want into dst,
// preserving order; returns how many were written. This one function is both
// engine compactions: want=1 builds a chunk's halt slab from the done flags,
// want=0 compacts survivors out of the active list.
inline std::int64_t compact_by_flag_scalar(std::int32_t* dst,
                                           const std::int32_t* src,
                                           const std::uint8_t* flags,
                                           std::int64_t count, bool want) {
  const std::uint8_t w = want ? 1 : 0;
  std::int64_t out = 0;
  for (std::int64_t i = 0; i < count; ++i) {
    dst[out] = src[i];
    out += static_cast<std::int64_t>(flags[i] == w);
  }
  return out;
}

#if defined(CKP_SIMD_AVX2)

namespace detail {

// 256-entry left-pack shuffle table: entry m holds the lane indices of m's
// set bits in ascending order (unused lanes point at lane 7, whose value is
// never read past the popcount cursor). Built once at namespace scope.
struct PackTable {
  alignas(32) std::uint32_t perm[256][8];
  constexpr PackTable() : perm() {
    for (int m = 0; m < 256; ++m) {
      int out = 0;
      for (int lane = 0; lane < 8; ++lane) {
        if (m & (1 << lane)) perm[m][out++] = static_cast<std::uint32_t>(lane);
      }
      for (; out < 8; ++out) perm[m][out] = 7;
    }
  }
};
inline constexpr PackTable kPackTable{};

}  // namespace detail

template <typename T>
inline void assemble_rows8(const T** row, const std::int32_t* idx,
                           std::size_t count, const T* base) {
  // The vector form hardcodes the 8-byte stride (slli by 3); states of any
  // other size take the scalar loop. Packed-roster states are all 8 bytes.
  if constexpr (sizeof(T) == 8) {
    const auto base_addr = reinterpret_cast<std::uintptr_t>(base);
    const __m256i vbase =
        _mm256_set1_epi64x(static_cast<long long>(base_addr));
    std::size_t k = 0;
    for (; k + 8 <= count; k += 8) {
      const __m256i v32 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + k));
      // Widen the 8 indices to 64 bits, scale by the 8-byte stride, add base.
      const __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v32));
      const __m256i hi =
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v32, 1));
      const __m256i plo = _mm256_add_epi64(vbase, _mm256_slli_epi64(lo, 3));
      const __m256i phi = _mm256_add_epi64(vbase, _mm256_slli_epi64(hi, 3));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + k), plo);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(row + k + 4), phi);
    }
    for (; k < count; ++k) row[k] = base + idx[k];
  } else {
    assemble_rows8_scalar(row, idx, count, base);
  }
}

inline std::int64_t compact_by_flag(std::int32_t* dst, const std::int32_t* src,
                                    const std::uint8_t* flags,
                                    std::int64_t count, bool want) {
  // Flags are 0/1 bytes; XOR with `want^1` turns the wanted value into 1 so
  // one movemask path serves both compactions.
  const __m128i flip = _mm_set1_epi8(want ? 0 : 1);
  const __m128i zero = _mm_setzero_si128();
  std::int64_t out = 0;
  std::int64_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m128i f8 = _mm_xor_si128(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(flags + i)), flip);
    // Lane k of the mask = (flags[i+k] == want).
    const int mask =
        _mm_movemask_epi8(_mm_cmpgt_epi8(f8, zero)) & 0xFF;
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    const __m256i perm = _mm256_load_si256(reinterpret_cast<const __m256i*>(
        detail::kPackTable.perm[static_cast<std::size_t>(mask)]));
    // Full 8-lane store with trailing garbage: legal in-place because
    // out <= i, so the store window [out, out+8) never reaches the unread
    // suffix [i+8, count) — see the header contract.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + out),
                        _mm256_permutevar8x32_epi32(v, perm));
    out += __builtin_popcount(static_cast<unsigned>(mask));
  }
  const std::uint8_t w = want ? 1 : 0;
  for (; i < count; ++i) {
    dst[out] = src[i];
    out += static_cast<std::int64_t>(flags[i] == w);
  }
  return out;
}

#elif defined(CKP_SIMD_NEON)

template <typename T>
inline void assemble_rows8(const T** row, const std::int32_t* idx,
                           std::size_t count, const T* base) {
  // As in the AVX2 form: the vector path is specific to the 8-byte stride.
  if constexpr (sizeof(T) == 8) {
    const auto base_addr = reinterpret_cast<std::uintptr_t>(base);
    const uint64x2_t vbase = vdupq_n_u64(base_addr);
    std::size_t k = 0;
    for (; k + 4 <= count; k += 4) {
      const int32x4_t v32 = vld1q_s32(idx + k);
      const uint64x2_t lo =
          vreinterpretq_u64_s64(vmovl_s32(vget_low_s32(v32)));
      const uint64x2_t hi =
          vreinterpretq_u64_s64(vmovl_s32(vget_high_s32(v32)));
      vst1q_u64(reinterpret_cast<std::uint64_t*>(row + k),
                vaddq_u64(vbase, vshlq_n_u64(lo, 3)));
      vst1q_u64(reinterpret_cast<std::uint64_t*>(row + k + 2),
                vaddq_u64(vbase, vshlq_n_u64(hi, 3)));
    }
    for (; k < count; ++k) row[k] = base + idx[k];
  } else {
    assemble_rows8_scalar(row, idx, count, base);
  }
}

// NEON has no cross-lane permute-by-variable on 32-bit lanes cheap enough to
// beat a well-predicted scalar cursor here, so compaction keeps the scalar
// form (the assembly kernel is the hot one: it runs per step, compaction
// once per chunk per round).
inline std::int64_t compact_by_flag(std::int32_t* dst, const std::int32_t* src,
                                    const std::uint8_t* flags,
                                    std::int64_t count, bool want) {
  return compact_by_flag_scalar(dst, src, flags, count, want);
}

#else

template <typename T>
inline void assemble_rows8(const T** row, const std::int32_t* idx,
                           std::size_t count, const T* base) {
  assemble_rows8_scalar(row, idx, count, base);
}

inline std::int64_t compact_by_flag(std::int32_t* dst, const std::int32_t* src,
                                    const std::uint8_t* flags,
                                    std::int64_t count, bool want) {
  return compact_by_flag_scalar(dst, src, flags, count, want);
}

#endif

}  // namespace ckp::simd
