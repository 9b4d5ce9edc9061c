/**
 * @file
 * A compact dynamic bit vector used for crossbar rows and scheduler
 * slots, with fast iteration over set bits.
 *
 * std::vector<bool> lacks word access and std::bitset is fixed-size;
 * crossbar geometry is a runtime parameter, so NSCS carries its own
 * minimal implementation.
 */

#ifndef NSCS_UTIL_BITVEC_HH
#define NSCS_UTIL_BITVEC_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nscs {

/**
 * Fixed-length (at construction) vector of bits backed by 64-bit
 * words.  All index arguments are asserted in range in debug terms via
 * bounds checks kept cheap enough for release builds.
 */
class BitVec
{
  public:
    BitVec() = default;

    /** Construct @p nbits bits, all clear. */
    explicit BitVec(size_t nbits);

    /** Number of bits. */
    size_t size() const { return nbits_; }

    /** Set bit @p idx to @p value. */
    void set(size_t idx, bool value = true);

    /** Clear bit @p idx. */
    void clear(size_t idx) { set(idx, false); }

    /** Clear all bits. */
    void reset();

    /** @return the value of bit @p idx. */
    bool test(size_t idx) const;

    /** @return number of set bits. */
    size_t count() const;

    /** @return true if no bit is set. */
    bool none() const;

    /** @return true if any bit is set. */
    bool any() const { return !none(); }

    /** Bitwise OR-assign; sizes must match. */
    BitVec &operator|=(const BitVec &other);

    /** Bitwise AND-assign; sizes must match. */
    BitVec &operator&=(const BitVec &other);

    /**
     * Word-wise OR-accumulate of @p other into this vector (sizes
     * must match).  @return true if any bit changed.
     */
    bool orAccumulate(const BitVec &other);

    /**
     * OR @p bits into backing word @p word_index.  The caller must
     * not set bits beyond size() (i.e. @p bits must come from a
     * same-width vector's word at the same index).
     */
    void
    orWordAt(size_t word_index, uint64_t bits)
    {
        words_[word_index] |= bits;
    }

    /** Popcount of (*this & other) without materializing the AND;
     *  sizes must match. */
    size_t andPopcount(const BitVec &other) const;

    /** True if (*this & other) has any set bit; sizes must match. */
    bool intersects(const BitVec &other) const;

    /** Equality compares size and content. */
    bool operator==(const BitVec &other) const = default;

    /**
     * Call @p fn(size_t index) for every set bit in increasing index
     * order.  This is the hot path of synaptic integration: it scans
     * words and extracts set bits with countr_zero.
     */
    template <typename Fn>
    void
    forEachSet(Fn &&fn) const
    {
        for (size_t w = 0; w < words_.size(); ++w) {
            uint64_t bits = words_[w];
            while (bits) {
                unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
                fn(w * 64 + b);
                bits &= bits - 1;
            }
        }
    }

    /**
     * Masked variant of forEachSet: visit set bits of
     * (*this & mask) in increasing index order without materializing
     * the intersection.  Sizes must match.
     */
    template <typename Fn>
    void
    forEachSetMasked(const BitVec &mask, Fn &&fn) const
    {
        assertSameSize(mask);
        const std::vector<uint64_t> &mw = mask.words_;
        for (size_t w = 0; w < words_.size(); ++w) {
            uint64_t bits = words_[w] & mw[w];
            while (bits) {
                unsigned b = static_cast<unsigned>(__builtin_ctzll(bits));
                fn(w * 64 + b);
                bits &= bits - 1;
            }
        }
    }

    /** Direct word access (serialization). */
    const std::vector<uint64_t> &words() const { return words_; }

    /**
     * Overwrite backing word @p word_index with @p bits.  Bits beyond
     * size() are masked off, so the count()/none() invariants hold
     * for any input.  Snapshot restore and fault injection only — not
     * a hot path.
     */
    void setWord(size_t word_index, uint64_t bits);

    /**
     * Hex encoding of the backing words (16 lowercase digits per
     * word, word 0 first) for snapshot serialization.
     */
    std::string toHex() const;

    /**
     * Decode a toHex() string into this vector.  The length must
     * match this vector's word count exactly and no bit beyond
     * size() may be set; @return false on any violation (the vector
     * is unchanged on failure).
     */
    bool fromHex(const std::string &hex);

    /** Approximate heap footprint in bytes. */
    size_t footprintBytes() const { return words_.size() * 8; }

  private:
    /** Panics unless @p other has the same bit length (out-of-line
     *  so the header needs no logging include). */
    void assertSameSize(const BitVec &other) const;

    size_t nbits_ = 0;
    std::vector<uint64_t> words_;
};

} // namespace nscs

#endif // NSCS_UTIL_BITVEC_HH
