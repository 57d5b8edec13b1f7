/**
 * @file
 * Crash-consistent checkpoint/restore primitives: a versioned,
 * sectioned binary container plus the byte-level Serializer /
 * Deserializer every stateful subsystem uses to snapshot itself.
 *
 * Container layout (all integers little-endian):
 *
 *   u64 magic            "SDFMCKPT"
 *   u32 format version   kCkptFormatVersion
 *   u32 section count
 *   per section, in ascending name order:
 *     u32 name length, name bytes
 *     u64 payload length, payload bytes
 *     u32 CRC32 (IEEE) of the payload bytes
 *
 * The reader validates the whole container -- magic, version, length
 * framing, then every section CRC -- before any payload is handed to a
 * subsystem, and restore callers stage into a replica before touching
 * live state, so a rejected checkpoint never partially mutates a
 * running fleet. Rejections are typed (CkptStatus), never UB.
 *
 * Versioning policy: kCkptFormatVersion bumps on any wire-format
 * change; there is no cross-version migration (a checkpoint is a
 * point-in-time artifact of one build lineage, not an interchange
 * format), so readers reject any version other than their own.
 */

#ifndef SDFM_CKPT_CHECKPOINT_H
#define SDFM_CKPT_CHECKPOINT_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/age_histogram.h"
#include "util/byte_buffer.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sdfm {

/** "SDFMCKPT", read as a little-endian u64. */
inline constexpr std::uint64_t kCkptMagic = 0x54504B434D464453ULL;

/** Wire-format version this build writes and accepts. Version 5:
 *  each zswap fact is written once. A Memcg writes one u32 handle per
 *  in-zswap page (no page ids, no count) and no residency counters;
 *  Zswap writes one checksum per live handle (no handles); the
 *  zsmalloc arena writes a (u16 size, u32 zspage) record per live slot
 *  only, takes liveness from its free list, and recounts its
 *  occupancy and byte/object totals on load. (Version 4:
 *  MachineConfig describes deep tiers only through its `tiers` vector,
 *  so the "config" fingerprint no longer carries the single-tier NVM
 *  and remote params, the band factor, the tier breaker or the donor
 *  failure rate. Version 3: config-rollout fault kinds grew the
 *  FaultInjector stats block, the node agent carries a config epoch,
 *  and rollout-supervised fleets add a "rollout" section. Version 2:
 *  memory-pooling fault kinds grew the per-machine FaultInjector stats
 *  block, and pooled fleets added "pool.NNNN" lease sections.) */
inline constexpr std::uint32_t kCkptFormatVersion = 5;

/** Typed outcome of checkpoint container and restore operations. */
enum class CkptStatus : std::uint8_t
{
    kOk = 0,
    kIoError,         ///< file could not be opened/read/written
    kBadMagic,        ///< not a checkpoint file
    kBadVersion,      ///< unknown format version
    kTruncated,       ///< framing runs past the end of the file
    kCrcMismatch,     ///< a section payload fails its CRC
    kConfigMismatch,  ///< checkpoint was taken under a different config
    kCorruptPayload,  ///< CRC-valid bytes that do not parse
};

/** Human-readable status name (stable, for logs and tests). */
const char *to_string(CkptStatus status);

/** CRC32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF). */
std::uint32_t crc32(const std::uint8_t *data, std::size_t size);

/**
 * Append-only little-endian byte sink. One Serializer builds one
 * section payload; framing and CRCs are the CkptWriter's job.
 *
 * Multi-byte values land as one memcpy on little-endian hosts; the
 * byte-wise path is the portable fallback and defines the wire order.
 */
class Serializer
{
  public:
    void put_u8(std::uint8_t v) { buf_.push_back(v); }
    void put_u16(std::uint16_t v) { put_le(v); }
    void put_u32(std::uint32_t v) { put_le(v); }
    void put_u64(std::uint64_t v) { put_le(v); }

    void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }

    /** Bit-exact double (IEEE-754 bits as u64). */
    void put_double(double v);

    void put_bool(bool v) { put_u8(v ? 1 : 0); }

    /** Raw bytes, no length prefix. */
    void
    put_bytes(const std::uint8_t *data, std::size_t size)
    {
        if (size != 0)
            std::memcpy(extend(size), data, size);
    }

    /**
     * Grow the payload by @p n bytes and return a pointer to them, for
     * callers that encode a bulk record region in place. The pointer
     * is invalidated by the next put or extend.
     */
    std::uint8_t *
    extend(std::size_t n)
    {
        std::size_t old = buf_.size();
        buf_.resize(old + n);
        return buf_.data() + old;
    }

    /** u64 length prefix + raw bytes. */
    void put_string(const std::string &s);

    /** u64 count prefix + one u64 per element. */
    void put_u64_vec(const std::vector<std::uint64_t> &v);

    /** u64 count prefix + one u32 per element. */
    void put_u32_vec(const std::vector<std::uint32_t> &v);

    /** Full engine state of an Rng stream. */
    void put_rng(const Rng &rng);

    /**
     * Sparse age-histogram encoding: a u32 bin count, then a (u8
     * bucket, u64 count) pair per non-zero bucket, ascending. A dense
     * AgeHistogram converts implicitly.
     */
    void put_age_histogram(const SparseAgeHistogram &h);

    const ByteBuffer &bytes() const { return buf_; }
    ByteBuffer take() { return std::move(buf_); }

  private:
    /** put_u64_vec/put_u32_vec: count prefix, then the elements. */
    template <typename T> void put_vec(const std::vector<T> &v);

    template <typename T>
    void
    put_le(T v)
    {
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(extend(sizeof v), &v, sizeof v);
        } else {
            for (std::size_t i = 0; i < sizeof v; ++i)
                buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
        }
    }

    ByteBuffer buf_;
};

/**
 * Bounds-checked little-endian byte source over a section payload.
 * Reads past the end set a sticky failure flag and return zeros;
 * callers check ok() once after a load instead of after every field.
 * A multi-byte read with too few bytes left fails the stream for good
 * and consumes the rest of it, so later reads also fail. Payloads are
 * CRC-validated before a Deserializer ever sees them, so a failed
 * read means semantic corruption (kCorruptPayload).
 */
class Deserializer
{
  public:
    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    explicit Deserializer(std::span<const std::uint8_t> bytes)
        : Deserializer(bytes.data(), bytes.size())
    {
    }

    std::uint8_t
    get_u8()
    {
        if (pos_ >= size_) {
            ok_ = false;
            return 0;
        }
        return data_[pos_++];
    }

    std::uint16_t get_u16() { return get_le<std::uint16_t>(); }
    std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
    std::uint64_t get_u64() { return get_le<std::uint64_t>(); }

    std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

    double get_double();

    bool get_bool() { return get_u8() != 0; }

    /**
     * The next @p n raw bytes as a view into the payload. A short
     * read fails the stream, consumes the rest of it and returns an
     * empty view.
     */
    std::span<const std::uint8_t>
    get_bytes(std::size_t n)
    {
        if (n > size_ - pos_) {
            ok_ = false;
            pos_ = size_;
            return {};
        }
        std::span<const std::uint8_t> out(data_ + pos_, n);
        pos_ += n;
        return out;
    }

    std::string get_string();

    std::vector<std::uint64_t> get_u64_vec();

    std::vector<std::uint32_t> get_u32_vec();

    void get_rng(Rng &rng);

    /**
     * Decode put_age_histogram()'s record. Fails the stream on more
     * than 256 bins, a zero count, or a bucket whose count passes
     * SparseAgeHistogram::kMaxCount; a repeated bucket adds up.
     */
    void get_age_histogram(SparseAgeHistogram &h);

    /** get_age_histogram() into the dense form. */
    void get_age_histogram(AgeHistogram &h);

    /**
     * A size prefix that bounds a following container. Fails the
     * stream (and returns 0) when the declared size exceeds
     * @p max_elems or the remaining bytes could not possibly hold it
     * (@p min_bytes_per_elem each, at least 1), so corrupt counts
     * cannot drive huge allocations.
     */
    std::size_t get_size(std::size_t max_elems,
                         std::size_t min_bytes_per_elem = 1);

    /** False once any read ran past the end or a guard tripped. */
    bool ok() const { return ok_; }

    /** Explicitly poison the stream (semantic validation failed). */
    void fail() { ok_ = false; }

    std::size_t remaining() const { return size_ - pos_; }
    bool at_end() const { return pos_ == size_; }

  private:
    /** get_u64_vec/get_u32_vec: count prefix, then the elements. */
    template <typename T> std::vector<T> get_vec();

    template <typename T>
    T
    get_le()
    {
        if (sizeof(T) > size_ - pos_) {
            ok_ = false;
            pos_ = size_;
            return 0;
        }
        T v = 0;
        if constexpr (std::endian::native == std::endian::little) {
            std::memcpy(&v, data_ + pos_, sizeof v);
        } else {
            for (std::size_t i = 0; i < sizeof v; ++i)
                v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
        }
        pos_ += sizeof v;
        return v;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/**
 * Interface for a subsystem that can snapshot and restore its full
 * trajectory state. ckpt_load() runs on CRC-validated bytes and
 * returns false on semantic corruption; it may leave the object in a
 * modified state, because whole-fleet restore stages into a replica
 * and only commits (swaps) after every subsystem loaded cleanly --
 * the live fleet is never partially mutated.
 *
 * Contract: a ckpt_save()/ckpt_load() round trip must reproduce the
 * subsequent trajectory bit-identically (state_digest()-equal at
 * every future step), which means every RNG stream, counter, and
 * container the step path reads must be covered. Serialization must
 * be deterministic: iterate unordered containers only through a
 * sorted key extraction (see the sdfm_lint unordered-iter rule).
 */
class Checkpointable
{
  public:
    virtual ~Checkpointable() = default;

    /** Append this subsystem's complete state. */
    virtual void ckpt_save(Serializer &s) const = 0;

    /** Restore state written by ckpt_save(); false on corruption. */
    virtual bool ckpt_load(Deserializer &d) = 0;
};

/**
 * Tag selecting a restore constructor: build the cheapest structurally
 * valid object (no RNG draws, minimal allocation) and rely on a
 * following ckpt_load() to overwrite every member. Keeps the normal
 * constructors free of checkpoint concerns.
 */
struct CkptRestoreTag
{
};

/** Builds and writes a checkpoint container. */
class CkptWriter
{
  public:
    /** Add a section; names must be unique. Computes its CRC. */
    void add_section(std::string name, ByteBuffer payload);

    /**
     * Add a section whose CRC the caller already computed, so payloads
     * encoded in parallel are also checksummed in parallel. @p crc
     * must equal crc32() of @p payload.
     */
    void add_section(std::string name, ByteBuffer payload,
                     std::uint32_t crc);

    /**
     * The container bytes (sections sorted by name). The reference
     * encoding: write_file() streams exactly these bytes.
     */
    ByteBuffer encode() const;

    /**
     * Stream the container to @p path.tmp, then rename it over
     * @p path. The rename makes the replacement atomic against a
     * process kill; without an fsync it is not durable across a power
     * loss.
     */
    CkptStatus write_file(const std::string &path) const;

  private:
    struct Section
    {
        std::string name;
        ByteBuffer payload;
        std::uint32_t crc;
    };

    /** Emit the container as consecutive byte chunks, in file order. */
    template <typename Sink> void emit(Sink &&sink) const;

    std::vector<Section> sections_;
};

/** One section of a parsed container: a view into the reader's buffer. */
struct CkptSection
{
    std::string name;
    std::span<const std::uint8_t> payload;
};

/**
 * Parses and fully validates a checkpoint container. The reader owns
 * the container bytes; sections are views into them, valid while the
 * reader lives. parse() checks all framing first (magic, version,
 * lengths, ascending unique names, no trailing bytes), then every
 * section CRC, so a file that is both truncated and bit-flipped
 * reports kTruncated. After kOk, every section has passed both.
 *
 * Given a pool, the section CRCs are checked on it, one task per
 * section; they read only the container bytes. Without one they are
 * checked in file order on the calling thread.
 */
class CkptReader
{
  public:
    CkptReader() = default;
    // A copy's section views would still point into this buffer.
    CkptReader(const CkptReader &) = delete;
    CkptReader &operator=(const CkptReader &) = delete;

    /** Validate @p bytes; on kOk, populates this reader. */
    CkptStatus parse(ByteBuffer bytes,
                     ThreadPool *pool = nullptr);

    /** Read and validate a file. */
    CkptStatus read_file(const std::string &path,
                         ThreadPool *pool = nullptr);

    /** Section payload by name; empty optional when absent. */
    std::optional<std::span<const std::uint8_t>>
    section(std::string_view name) const;

    const std::vector<CkptSection> &sections() const { return sections_; }

  private:
    ByteBuffer bytes_;
    std::vector<CkptSection> sections_;
};

}  // namespace sdfm

#endif  // SDFM_CKPT_CHECKPOINT_H
