/**
 * @file
 * The per-level SIMD kernel implementations and the runtime
 * dispatch table (see util/simd.hh for the contract).
 *
 * x86-64 variants are compiled with per-function target attributes
 * (`target("avx2")` / `target("avx512f")`), so this translation
 * unit builds under the project's baseline -O2 flags and the binary
 * stays runnable on hosts without the extensions — the cpuid probe
 * decides what actually executes.  NEON is aarch64 baseline and
 * needs no attribute.  Every variant implements the identical
 * integer arithmetic; tails that don't fill a vector run the scalar
 * reference so a level's output never depends on the word count.
 *
 * This is the only file in src/ allowed to use vendor intrinsics
 * (linter rule `simd-guard`).
 */

#include "util/simd.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define NSCS_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define NSCS_SIMD_NEON 1
#include <arm_neon.h>
#endif

// GCC's avx512fintrin.h implements _mm512_undefined_epi32 (used by
// the unaligned load/store intrinsics) with a self-initialized
// variable, which -Wmaybe-uninitialized flags once those helpers are
// inlined here.  The values are fully overwritten before use; mute
// just those diagnostics for this TU.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace nscs {
namespace simd {

namespace {

// ---------------------------------------------------------------
// Scalar reference kernels.  Range variants exist so the vector
// kernels can delegate their sub-vector tails.
// ---------------------------------------------------------------

void
foldRowScalarRange(uint64_t *planes, size_t stride,
                   uint32_t plane_count, const uint64_t *row,
                   size_t w0, size_t words)
{
    for (size_t w = w0; w < words; ++w) {
        uint64_t carry = row[w];
        if (!carry)
            continue;
        size_t idx = w;
        for (uint32_t p = 0; p < plane_count && carry;
             ++p, idx += stride) {
            uint64_t old = planes[idx];
            planes[idx] = old ^ carry;
            carry &= old;
        }
    }
}

void
foldRowScalar(uint64_t *planes, size_t stride, uint32_t plane_count,
              const uint64_t *row, size_t words)
{
    foldRowScalarRange(planes, stride, plane_count, row, 0, words);
}

uint64_t
orAccumulateScalarRange(uint64_t *dst, const uint64_t *src, size_t w0,
                        size_t words)
{
    uint64_t changed = 0;
    for (size_t w = w0; w < words; ++w) {
        uint64_t old = dst[w];
        uint64_t nw = old | src[w];
        changed |= old ^ nw;
        dst[w] = nw;
    }
    return changed;
}

bool
orAccumulateScalar(uint64_t *dst, const uint64_t *src, size_t words)
{
    return orAccumulateScalarRange(dst, src, 0, words) != 0;
}

void
andWordsScalar(uint64_t *dst, const uint64_t *src, size_t words)
{
    for (size_t w = 0; w < words; ++w)
        dst[w] &= src[w];
}

uint64_t
andPopcountScalarRange(const uint64_t *a, const uint64_t *b,
                       size_t w0, size_t words)
{
    uint64_t total = 0;
    for (size_t w = w0; w < words; ++w)
        total += static_cast<uint64_t>(
            __builtin_popcountll(a[w] & b[w]));
    return total;
}

uint64_t
andPopcountScalar(const uint64_t *a, const uint64_t *b, size_t words)
{
    return andPopcountScalarRange(a, b, 0, words);
}

/**
 * The batched synaptic apply over lanes [begin, end) — the reference
 * for util/simd.hh's applyWord contract.  Every intermediate fits
 * int32: counts <= 2^8, |weight| <= 255 and |v| <= 2^30 (potential
 * rails cap at 31 bits), so pos/neg/delta stay under 2^18 and the
 * guard sums under 2^31.
 */
uint64_t
applyWordScalarRange(const ApplyWord &a, uint32_t begin, uint32_t end)
{
    uint64_t applied = 0;
    for (uint32_t b = begin; b < end; ++b) {
        int32_t delta = 0, pos = 0, neg = 0;
        for (unsigned g = 0; g < kApplyWordTypes; ++g) {
            if (!a.detUsed[g])
                continue;
            const int32_t wt = a.weight[g][b];
            int32_t d;
            if ((a.stochMask[g] >> b) & 1) {
                int32_t scnt = 0;
                const uint64_t *sp = a.succPlanes[g];
                for (uint32_t p = 0; p < a.succUsed[g]; ++p)
                    scnt |= static_cast<int32_t>(
                                (sp[p * a.succStride] >> b) & 1)
                        << p;
                d = scnt * ((wt > 0) - (wt < 0));
            } else {
                int32_t cnt = 0;
                const uint64_t *pl = a.detPlanes[g];
                for (uint32_t p = 0; p < a.detUsed[g]; ++p)
                    cnt |= static_cast<int32_t>(
                               (pl[p] >> b) & 1)
                        << p;
                d = cnt * wt;
            }
            delta += d;
            if (d > 0)
                pos += d;
            else
                neg += d;
        }
        const int32_t v0 = a.v[b];
        if (v0 + pos <= a.vHi[b] && v0 + neg >= a.vLo[b]) {
            a.v[b] = v0 + delta;
            applied |= uint64_t{1} << b;
        }
    }
    return applied;
}

uint64_t
applyWordScalar(const ApplyWord &a, uint32_t n)
{
    return applyWordScalarRange(a, 0, n);
}

#ifdef NSCS_SIMD_X86

// ---------------------------------------------------------------
// AVX2 kernels: 4 x u64 / 8 x i32 per vector.
// ---------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i
load256(const void *p)
{
    // nscs-lint: allow(raw-serialize): unaligned SIMD lane load
    return _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p));
}

__attribute__((target("avx2"))) inline void
store256(void *p, __m256i x)
{
    // nscs-lint: allow(raw-serialize): unaligned SIMD lane store
    _mm256_storeu_si256(reinterpret_cast<__m256i *>(p), x);
}

__attribute__((target("avx2"))) void
foldRowAvx2(uint64_t *planes, size_t stride, uint32_t plane_count,
            const uint64_t *row, size_t words)
{
    size_t w = 0;
    for (; w + 4 <= words; w += 4) {
        __m256i carry = load256(row + w);
        if (_mm256_testz_si256(carry, carry))
            continue;
        size_t idx = w;
        for (uint32_t p = 0; p < plane_count; ++p, idx += stride) {
            __m256i old = load256(planes + idx);
            store256(planes + idx, _mm256_xor_si256(old, carry));
            carry = _mm256_and_si256(carry, old);
            if (_mm256_testz_si256(carry, carry))
                break;
        }
    }
    foldRowScalarRange(planes, stride, plane_count, row, w, words);
}

__attribute__((target("avx2"))) bool
orAccumulateAvx2(uint64_t *dst, const uint64_t *src, size_t words)
{
    __m256i changed = _mm256_setzero_si256();
    size_t w = 0;
    for (; w + 4 <= words; w += 4) {
        __m256i old = load256(dst + w);
        __m256i nw = _mm256_or_si256(old, load256(src + w));
        changed = _mm256_or_si256(changed,
                                  _mm256_xor_si256(old, nw));
        store256(dst + w, nw);
    }
    uint64_t tail = orAccumulateScalarRange(dst, src, w, words);
    return !_mm256_testz_si256(changed, changed) || tail != 0;
}

__attribute__((target("avx2"))) void
andWordsAvx2(uint64_t *dst, const uint64_t *src, size_t words)
{
    size_t w = 0;
    for (; w + 4 <= words; w += 4)
        store256(dst + w,
                 _mm256_and_si256(load256(dst + w), load256(src + w)));
    for (; w < words; ++w)
        dst[w] &= src[w];
}

/** Nibble-LUT popcount of a 256-bit vector into 4 u64 partials. */
__attribute__((target("avx2"))) inline __m256i
popcount256(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    __m256i lo = _mm256_and_si256(v, low);
    __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                  _mm256_shuffle_epi8(lut, hi));
    return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

__attribute__((target("avx2"))) uint64_t
andPopcountAvx2(const uint64_t *a, const uint64_t *b, size_t words)
{
    __m256i acc = _mm256_setzero_si256();
    size_t w = 0;
    for (; w + 4 <= words; w += 4)
        acc = _mm256_add_epi64(
            acc, popcount256(_mm256_and_si256(load256(a + w),
                                              load256(b + w))));
    uint64_t lanes[4];
    store256(lanes, acc);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
        andPopcountScalarRange(a, b, w, words);
}

__attribute__((target("avx2"))) inline __m256i
clamp256(__m256i x, __m256i lo, __m256i hi)
{
    return _mm256_min_epi32(_mm256_max_epi32(x, lo), hi);
}

/** Expand 8 plane bits (lanes sh..sh+7 of a word) into 32-bit lane
 *  masks: all-ones where the bit is set (AVX2 has no mask registers,
 *  so predication goes through compare + blend vectors). */
__attribute__((target("avx2"))) inline __m256i
laneMask256(uint64_t word, unsigned sh)
{
    const __m256i sel =
        _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
    const __m256i bits = _mm256_set1_epi32(
        static_cast<int32_t>((word >> sh) & 0xff));
    return _mm256_cmpeq_epi32(_mm256_and_si256(bits, sel), sel);
}

__attribute__((target("avx2"))) uint64_t
applyWordAvx2(const ApplyWord &a, uint32_t n)
{
    const __m256i zero = _mm256_setzero_si256();
    uint64_t applied = 0;
    uint32_t c = 0;
    for (; c + 8 <= n; c += 8) {
        __m256i delta = zero, pos = zero, neg = zero;
        for (unsigned g = 0; g < kApplyWordTypes; ++g) {
            if (!a.detUsed[g])
                continue;
            __m256i cnt = zero;
            for (uint32_t p = 0; p < a.detUsed[g]; ++p)
                cnt = _mm256_add_epi32(
                    cnt,
                    _mm256_and_si256(
                        laneMask256(a.detPlanes[g][p], c),
                        _mm256_set1_epi32(1 << p)));
            const __m256i wt = load256(a.weight[g] + c);
            __m256i d = _mm256_mullo_epi32(cnt, wt);
            const uint64_t sm = a.stochMask[g];
            if ((sm >> c) & 0xff) {
                __m256i scnt = zero;
                for (uint32_t p = 0; p < a.succUsed[g]; ++p)
                    scnt = _mm256_add_epi32(
                        scnt,
                        _mm256_and_si256(
                            laneMask256(
                                a.succPlanes[g][p * a.succStride],
                                c),
                            _mm256_set1_epi32(1 << p)));
                const __m256i sg = clamp256(
                    wt, _mm256_set1_epi32(-1), _mm256_set1_epi32(1));
                d = _mm256_blendv_epi8(
                    d, _mm256_mullo_epi32(scnt, sg),
                    laneMask256(sm, c));
            }
            delta = _mm256_add_epi32(delta, d);
            pos = _mm256_add_epi32(pos, _mm256_max_epi32(d, zero));
            neg = _mm256_add_epi32(neg, _mm256_min_epi32(d, zero));
        }
        const __m256i v0 = load256(a.v + c);
        // ok = (v0 + pos <= vHi) && (v0 + neg >= vLo): the
        // complement of either inverted compare.
        const __m256i over = _mm256_or_si256(
            _mm256_cmpgt_epi32(_mm256_add_epi32(v0, pos),
                               load256(a.vHi + c)),
            _mm256_cmpgt_epi32(load256(a.vLo + c),
                               _mm256_add_epi32(v0, neg)));
        const __m256i ok =
            _mm256_andnot_si256(over, _mm256_set1_epi32(-1));
        store256(a.v + c,
                 _mm256_blendv_epi8(v0, _mm256_add_epi32(v0, delta),
                                    ok));
        const unsigned m = static_cast<unsigned>(
            _mm256_movemask_ps(_mm256_castsi256_ps(ok)));
        applied |= static_cast<uint64_t>(m) << c;
    }
    return applied | applyWordScalarRange(a, c, n);
}

// ---------------------------------------------------------------
// AVX-512 kernels: 8 x u64 / 16 x i32 per vector (AVX-512F only;
// the VPOPCNTDQ popcount is probed separately at dispatch).
// ---------------------------------------------------------------

__attribute__((target("avx512f"))) void
foldRowAvx512(uint64_t *planes, size_t stride, uint32_t plane_count,
              const uint64_t *row, size_t words)
{
    size_t w = 0;
    for (; w + 8 <= words; w += 8) {
        __m512i carry = _mm512_loadu_si512(row + w);
        if (_mm512_test_epi64_mask(carry, carry) == 0)
            continue;
        size_t idx = w;
        for (uint32_t p = 0; p < plane_count; ++p, idx += stride) {
            __m512i old = _mm512_loadu_si512(planes + idx);
            _mm512_storeu_si512(planes + idx,
                                _mm512_xor_si512(old, carry));
            carry = _mm512_and_si512(carry, old);
            if (_mm512_test_epi64_mask(carry, carry) == 0)
                break;
        }
    }
    foldRowScalarRange(planes, stride, plane_count, row, w, words);
}

__attribute__((target("avx512f"))) bool
orAccumulateAvx512(uint64_t *dst, const uint64_t *src, size_t words)
{
    __m512i changed = _mm512_setzero_si512();
    size_t w = 0;
    for (; w + 8 <= words; w += 8) {
        __m512i old = _mm512_loadu_si512(dst + w);
        __m512i nw = _mm512_or_si512(old, _mm512_loadu_si512(src + w));
        changed = _mm512_or_si512(changed, _mm512_xor_si512(old, nw));
        _mm512_storeu_si512(dst + w, nw);
    }
    uint64_t tail = orAccumulateScalarRange(dst, src, w, words);
    return _mm512_test_epi64_mask(changed, changed) != 0 || tail != 0;
}

__attribute__((target("avx512f"))) void
andWordsAvx512(uint64_t *dst, const uint64_t *src, size_t words)
{
    size_t w = 0;
    for (; w + 8 <= words; w += 8)
        _mm512_storeu_si512(
            dst + w, _mm512_and_si512(_mm512_loadu_si512(dst + w),
                                      _mm512_loadu_si512(src + w)));
    for (; w < words; ++w)
        dst[w] &= src[w];
}

__attribute__((target("avx512f,avx512vpopcntdq"))) uint64_t
andPopcountAvx512Vp(const uint64_t *a, const uint64_t *b,
                    size_t words)
{
    __m512i acc = _mm512_setzero_si512();
    size_t w = 0;
    for (; w + 8 <= words; w += 8)
        acc = _mm512_add_epi64(
            acc, _mm512_popcnt_epi64(
                     _mm512_and_si512(_mm512_loadu_si512(a + w),
                                      _mm512_loadu_si512(b + w))));
    return static_cast<uint64_t>(_mm512_reduce_add_epi64(acc)) +
        andPopcountScalarRange(a, b, w, words);
}

bool
hasVpopcntdq()
{
    static const bool has =
        __builtin_cpu_supports("avx512vpopcntdq") != 0;
    return has;
}

uint64_t
andPopcountAvx512(const uint64_t *a, const uint64_t *b, size_t words)
{
    if (hasVpopcntdq())
        return andPopcountAvx512Vp(a, b, words);
    // AVX-512F alone has no vector popcount; the AVX2 nibble-LUT
    // kernel is the fastest fallback and keeps results identical.
    return andPopcountAvx2(a, b, words);
}

__attribute__((target("avx512f"))) inline __m512i
clamp512(__m512i x, __m512i lo, __m512i hi)
{
    return _mm512_min_epi32(_mm512_max_epi32(x, lo), hi);
}

__attribute__((target("avx512f"))) uint64_t
applyWordAvx512(const ApplyWord &a, uint32_t n)
{
    const __m512i zero = _mm512_setzero_si512();
    uint64_t applied = 0;
    uint32_t c = 0;
    for (; c + 16 <= n; c += 16) {
        __m512i delta = zero, pos = zero, neg = zero;
        for (unsigned g = 0; g < kApplyWordTypes; ++g) {
            if (!a.detUsed[g])
                continue;
            __m512i cnt = zero;
            for (uint32_t p = 0; p < a.detUsed[g]; ++p) {
                const auto m = static_cast<__mmask16>(
                    a.detPlanes[g][p] >> c);
                cnt = _mm512_mask_add_epi32(
                    cnt, m, cnt, _mm512_set1_epi32(1 << p));
            }
            const __m512i wt = _mm512_loadu_si512(a.weight[g] + c);
            __m512i d = _mm512_mullo_epi32(cnt, wt);
            const auto sm =
                static_cast<__mmask16>(a.stochMask[g] >> c);
            if (sm) {
                __m512i scnt = zero;
                for (uint32_t p = 0; p < a.succUsed[g]; ++p) {
                    const auto m = static_cast<__mmask16>(
                        a.succPlanes[g][p * a.succStride] >> c);
                    scnt = _mm512_mask_add_epi32(
                        scnt, m, scnt, _mm512_set1_epi32(1 << p));
                }
                const __m512i sg = clamp512(
                    wt, _mm512_set1_epi32(-1), _mm512_set1_epi32(1));
                d = _mm512_mask_blend_epi32(
                    sm, d, _mm512_mullo_epi32(scnt, sg));
            }
            delta = _mm512_add_epi32(delta, d);
            pos = _mm512_add_epi32(pos, _mm512_max_epi32(d, zero));
            neg = _mm512_add_epi32(neg, _mm512_min_epi32(d, zero));
        }
        const __m512i v0 = _mm512_loadu_si512(a.v + c);
        __mmask16 ok = _mm512_cmp_epi32_mask(
            _mm512_add_epi32(v0, pos),
            _mm512_loadu_si512(a.vHi + c), _MM_CMPINT_LE);
        ok = _mm512_mask_cmp_epi32_mask(
            ok, _mm512_add_epi32(v0, neg),
            _mm512_loadu_si512(a.vLo + c), _MM_CMPINT_NLT);
        _mm512_mask_storeu_epi32(a.v + c, ok,
                                 _mm512_add_epi32(v0, delta));
        applied |= static_cast<uint64_t>(static_cast<uint16_t>(ok))
            << c;
    }
    return applied | applyWordScalarRange(a, c, n);
}

#endif // NSCS_SIMD_X86

#ifdef NSCS_SIMD_NEON

// ---------------------------------------------------------------
// NEON kernels: 2 x u64 / 4 x i32 per vector (aarch64 baseline).
// ---------------------------------------------------------------

void
foldRowNeon(uint64_t *planes, size_t stride, uint32_t plane_count,
            const uint64_t *row, size_t words)
{
    size_t w = 0;
    for (; w + 2 <= words; w += 2) {
        uint64x2_t carry = vld1q_u64(row + w);
        if (vmaxvq_u32(vreinterpretq_u32_u64(carry)) == 0)
            continue;
        size_t idx = w;
        for (uint32_t p = 0; p < plane_count; ++p, idx += stride) {
            uint64x2_t old = vld1q_u64(planes + idx);
            vst1q_u64(planes + idx, veorq_u64(old, carry));
            carry = vandq_u64(carry, old);
            if (vmaxvq_u32(vreinterpretq_u32_u64(carry)) == 0)
                break;
        }
    }
    foldRowScalarRange(planes, stride, plane_count, row, w, words);
}

bool
orAccumulateNeon(uint64_t *dst, const uint64_t *src, size_t words)
{
    uint64x2_t changed = vdupq_n_u64(0);
    size_t w = 0;
    for (; w + 2 <= words; w += 2) {
        uint64x2_t old = vld1q_u64(dst + w);
        uint64x2_t nw = vorrq_u64(old, vld1q_u64(src + w));
        changed = vorrq_u64(changed, veorq_u64(old, nw));
        vst1q_u64(dst + w, nw);
    }
    uint64_t tail = orAccumulateScalarRange(dst, src, w, words);
    return vmaxvq_u32(vreinterpretq_u32_u64(changed)) != 0 ||
        tail != 0;
}

void
andWordsNeon(uint64_t *dst, const uint64_t *src, size_t words)
{
    size_t w = 0;
    for (; w + 2 <= words; w += 2)
        vst1q_u64(dst + w,
                  vandq_u64(vld1q_u64(dst + w), vld1q_u64(src + w)));
    for (; w < words; ++w)
        dst[w] &= src[w];
}

uint64_t
andPopcountNeon(const uint64_t *a, const uint64_t *b, size_t words)
{
    uint64x2_t acc = vdupq_n_u64(0);
    size_t w = 0;
    for (; w + 2 <= words; w += 2) {
        uint8x16_t bits = vreinterpretq_u8_u64(
            vandq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
        acc = vaddq_u64(
            acc, vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(bits)))));
    }
    return vgetq_lane_u64(acc, 0) + vgetq_lane_u64(acc, 1) +
        andPopcountScalarRange(a, b, w, words);
}

/** Expand 4 plane bits (lanes sh..sh+3 of a word) into 32-bit lane
 *  masks: all-ones where the bit is set — the 4-lane sibling of
 *  laneMask256 (NEON predication also goes through compare + bsl). */
inline uint32x4_t
laneMask4(uint64_t word, unsigned sh)
{
    const uint32x4_t sel = {1u, 2u, 4u, 8u};
    const uint32x4_t bits =
        vdupq_n_u32(static_cast<uint32_t>((word >> sh) & 0xf));
    return vceqq_u32(vandq_u32(bits, sel), sel);
}

uint64_t
applyWordNeon(const ApplyWord &a, uint32_t n)
{
    const int32x4_t zero = vdupq_n_s32(0);
    const uint32x4_t bitsel = {1u, 2u, 4u, 8u};
    uint64_t applied = 0;
    uint32_t c = 0;
    for (; c + 4 <= n; c += 4) {
        int32x4_t delta = zero, pos = zero, neg = zero;
        for (unsigned g = 0; g < kApplyWordTypes; ++g) {
            if (!a.detUsed[g])
                continue;
            int32x4_t cnt = zero;
            for (uint32_t p = 0; p < a.detUsed[g]; ++p)
                cnt = vaddq_s32(
                    cnt,
                    vreinterpretq_s32_u32(vandq_u32(
                        laneMask4(a.detPlanes[g][p], c),
                        vdupq_n_u32(1u << p))));
            const int32x4_t wt = vld1q_s32(a.weight[g] + c);
            int32x4_t d = vmulq_s32(cnt, wt);
            const uint64_t sm = a.stochMask[g];
            if ((sm >> c) & 0xf) {
                int32x4_t scnt = zero;
                for (uint32_t p = 0; p < a.succUsed[g]; ++p)
                    scnt = vaddq_s32(
                        scnt,
                        vreinterpretq_s32_u32(vandq_u32(
                            laneMask4(
                                a.succPlanes[g][p * a.succStride],
                                c),
                            vdupq_n_u32(1u << p))));
                // Stochastic lanes apply sign(weight) per success.
                const int32x4_t sg = vminq_s32(
                    vmaxq_s32(wt, vdupq_n_s32(-1)), vdupq_n_s32(1));
                d = vbslq_s32(laneMask4(sm, c), vmulq_s32(scnt, sg),
                              d);
            }
            delta = vaddq_s32(delta, d);
            pos = vaddq_s32(pos, vmaxq_s32(d, zero));
            neg = vaddq_s32(neg, vminq_s32(d, zero));
        }
        const int32x4_t v0 = vld1q_s32(a.v + c);
        // ok = (v0 + pos <= vHi) && (v0 + neg >= vLo).
        const uint32x4_t ok =
            vandq_u32(vcleq_s32(vaddq_s32(v0, pos),
                                vld1q_s32(a.vHi + c)),
                      vcgeq_s32(vaddq_s32(v0, neg),
                                vld1q_s32(a.vLo + c)));
        vst1q_s32(a.v + c, vbslq_s32(ok, vaddq_s32(v0, delta), v0));
        applied |= static_cast<uint64_t>(
                       vaddvq_u32(vandq_u32(ok, bitsel)))
            << c;
    }
    return applied | applyWordScalarRange(a, c, n);
}

#endif // NSCS_SIMD_NEON

const Ops kScalarOps = {foldRowScalar, orAccumulateScalar,
                        andWordsScalar, andPopcountScalar,
                        applyWordScalar};

#ifdef NSCS_SIMD_X86
const Ops kAvx2Ops = {foldRowAvx2, orAccumulateAvx2, andWordsAvx2,
                      andPopcountAvx2, applyWordAvx2};
const Ops kAvx512Ops = {foldRowAvx512, orAccumulateAvx512,
                        andWordsAvx512, andPopcountAvx512,
                        applyWordAvx512};
#endif
#ifdef NSCS_SIMD_NEON
const Ops kNeonOps = {foldRowNeon, orAccumulateNeon, andWordsNeon,
                      andPopcountNeon, applyWordNeon};
#endif

Level
detectImpl()
{
#ifdef NSCS_SIMD_X86
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return Level::Avx512;
    if (__builtin_cpu_supports("avx2"))
        return Level::Avx2;
    return Level::Scalar;
#elif defined(NSCS_SIMD_NEON)
    return Level::Neon;
#else
    return Level::Scalar;
#endif
}

constexpr uint8_t kLevelUnset = 0xff;

/** The pinned level; kLevelUnset until first use resolves it. */
std::atomic<uint8_t> activeStore{kLevelUnset};

/** Startup level: the NSCS_SIMD override when valid, else probe. */
Level
initialLevel()
{
    const char *env = std::getenv("NSCS_SIMD");
    Level l;
    if (env && *env && parseLevel(env, l) && levelAvailable(l))
        return l;
    return detectedLevel();
}

} // anonymous namespace

Level
detectedLevel()
{
    static const Level level = detectImpl();
    return level;
}

bool
levelAvailable(Level l)
{
    switch (l) {
      case Level::Scalar:
        return true;
      case Level::Avx2:
        return detectedLevel() == Level::Avx2 ||
            detectedLevel() == Level::Avx512;
      case Level::Avx512:
      case Level::Neon:
        return detectedLevel() == l;
    }
    return false;
}

Level
activeLevel()
{
    uint8_t a = activeStore.load(std::memory_order_acquire);
    if (a != kLevelUnset)
        return static_cast<Level>(a);
    uint8_t init = static_cast<uint8_t>(initialLevel());
    uint8_t expected = kLevelUnset;
    activeStore.compare_exchange_strong(expected, init,
                                        std::memory_order_acq_rel);
    return static_cast<Level>(
        activeStore.load(std::memory_order_acquire));
}

bool
setActiveLevel(Level l)
{
    if (!levelAvailable(l))
        return false;
    activeStore.store(static_cast<uint8_t>(l),
                      std::memory_order_release);
    return true;
}

std::vector<Level>
availableLevels()
{
    std::vector<Level> out;
    for (Level l : {Level::Scalar, Level::Avx2, Level::Avx512,
                    Level::Neon})
        if (levelAvailable(l))
            out.push_back(l);
    return out;
}

const char *
levelName(Level l)
{
    switch (l) {
      case Level::Scalar:
        return "scalar";
      case Level::Avx2:
        return "avx2";
      case Level::Avx512:
        return "avx512";
      case Level::Neon:
        return "neon";
    }
    return "scalar";
}

bool
parseLevel(const char *name, Level &out)
{
    if (!name)
        return false;
    if (std::strcmp(name, "scalar") == 0) {
        out = Level::Scalar;
        return true;
    }
    if (std::strcmp(name, "avx2") == 0) {
        out = Level::Avx2;
        return true;
    }
    if (std::strcmp(name, "avx512") == 0) {
        out = Level::Avx512;
        return true;
    }
    if (std::strcmp(name, "neon") == 0) {
        out = Level::Neon;
        return true;
    }
    if (std::strcmp(name, "native") == 0) {
        out = detectedLevel();
        return true;
    }
    return false;
}

const Ops &
opsFor(Level l)
{
    switch (l) {
#ifdef NSCS_SIMD_X86
      case Level::Avx2:
        return kAvx2Ops;
      case Level::Avx512:
        return kAvx512Ops;
#endif
#ifdef NSCS_SIMD_NEON
      case Level::Neon:
        return kNeonOps;
#endif
      default:
        return kScalarOps;
    }
}

const Ops &
ops()
{
    return opsFor(activeLevel());
}

} // namespace simd
} // namespace nscs
