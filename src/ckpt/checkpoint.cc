#include "ckpt/checkpoint.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

#include "util/invariant.h"
#include "util/logging.h"

namespace sdfm {

namespace {

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320:
 * tables[0] is the classic byte-at-a-time table, and tables[k][i] is
 * the CRC of byte i followed by k zero bytes.
 */
constexpr CrcTables
make_crc_tables()
{
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
        for (std::size_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    }
    return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t
load_le32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           static_cast<std::uint32_t>(p[1]) << 8 |
           static_cast<std::uint32_t>(p[2]) << 16 |
           static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

const char *
to_string(CkptStatus status)
{
    switch (status) {
      case CkptStatus::kOk:
        return "ok";
      case CkptStatus::kIoError:
        return "io-error";
      case CkptStatus::kBadMagic:
        return "bad-magic";
      case CkptStatus::kBadVersion:
        return "bad-version";
      case CkptStatus::kTruncated:
        return "truncated";
      case CkptStatus::kCrcMismatch:
        return "crc-mismatch";
      case CkptStatus::kConfigMismatch:
        return "config-mismatch";
      case CkptStatus::kCorruptPayload:
        return "corrupt-payload";
    }
    return "unknown";
}

std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    const CrcTables &t = kCrcTables;
    std::uint32_t c = 0xFFFFFFFFu;
    for (; size >= 8; data += 8, size -= 8) {
        std::uint32_t lo = load_le32(data) ^ c;
        std::uint32_t hi = load_le32(data + 4);
        c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
            t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
            t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

// -- Serializer ------------------------------------------------------

void
Serializer::put_double(double v)
{
    put_u64(std::bit_cast<std::uint64_t>(v));
}

void
Serializer::put_string(const std::string &s)
{
    put_u64(s.size());
    put_bytes(reinterpret_cast<const std::uint8_t *>(s.data()), s.size());
}

template <typename T>
void
Serializer::put_vec(const std::vector<T> &v)
{
    put_u64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
        put_bytes(reinterpret_cast<const std::uint8_t *>(v.data()),
                  v.size() * sizeof(T));
    } else {
        for (T x : v)
            put_le(x);
    }
}

void
Serializer::put_u64_vec(const std::vector<std::uint64_t> &v)
{
    put_vec(v);
}

void
Serializer::put_u32_vec(const std::vector<std::uint32_t> &v)
{
    put_vec(v);
}

void
Serializer::put_rng(const Rng &rng)
{
    RngState state = rng.state();
    for (std::uint64_t word : state.s)
        put_u64(word);
    put_bool(state.have_gauss);
    put_double(state.gauss_spare);
}

void
Serializer::put_age_histogram(const SparseAgeHistogram &h)
{
    put_u32(static_cast<std::uint32_t>(h.num_bins()));
    for (std::size_t i = 0; i < h.num_bins(); ++i) {
        put_u8(h.bin_bucket(i));
        put_u64(h.bin_count(i));
    }
}

// -- Deserializer ----------------------------------------------------

double
Deserializer::get_double()
{
    return std::bit_cast<double>(get_u64());
}

std::string
Deserializer::get_string()
{
    std::size_t len = get_size(remaining());
    std::span<const std::uint8_t> bytes = get_bytes(len);
    return std::string(bytes.begin(), bytes.end());
}

template <typename T>
std::vector<T>
Deserializer::get_vec()
{
    std::size_t n = get_size(remaining() / sizeof(T), sizeof(T));
    std::vector<T> v(n);
    if constexpr (std::endian::native == std::endian::little) {
        std::span<const std::uint8_t> bytes = get_bytes(n * sizeof(T));
        if (!bytes.empty())
            std::memcpy(v.data(), bytes.data(), bytes.size());
    } else {
        for (T &x : v)
            x = get_le<T>();
    }
    return v;
}

std::vector<std::uint64_t>
Deserializer::get_u64_vec()
{
    return get_vec<std::uint64_t>();
}

std::vector<std::uint32_t>
Deserializer::get_u32_vec()
{
    return get_vec<std::uint32_t>();
}

void
Deserializer::get_rng(Rng &rng)
{
    RngState state;
    for (std::uint64_t &word : state.s)
        word = get_u64();
    state.have_gauss = get_bool();
    state.gauss_spare = get_double();
    if (!ok_)
        return;
    // An all-zero xoshiro state in the payload is corruption, not a
    // legal snapshot; poison the stream instead of asserting.
    if ((state.s[0] | state.s[1] | state.s[2] | state.s[3]) == 0) {
        ok_ = false;
        return;
    }
    rng.set_state(state);
}

void
Deserializer::get_age_histogram(SparseAgeHistogram &h)
{
    std::uint32_t nonzero = get_u32();
    if (nonzero > kAgeBuckets) {
        ok_ = false;
        return;
    }
    SparseAgeHistogram restored;
    restored.reserve(nonzero);
    for (std::uint32_t i = 0; i < nonzero; ++i) {
        AgeBucket bucket = get_u8();
        std::uint64_t count = get_u64();
        if (count == 0 ||
            count > SparseAgeHistogram::kMaxCount - restored.at(bucket)) {
            ok_ = false;
            return;
        }
        restored.add(bucket, count);
    }
    if (ok_)
        h = std::move(restored);
}

void
Deserializer::get_age_histogram(AgeHistogram &h)
{
    SparseAgeHistogram sparse;
    get_age_histogram(sparse);
    if (!ok_)
        return;
    h.clear();
    for (std::size_t i = 0; i < sparse.num_bins(); ++i)
        h.add(sparse.bin_bucket(i), sparse.bin_count(i));
}

std::size_t
Deserializer::get_size(std::size_t max_elems, std::size_t min_bytes_per_elem)
{
    SDFM_ASSERT(min_bytes_per_elem > 0);
    std::uint64_t n = get_u64();
    if (!ok_)
        return 0;
    // Divide rather than multiply: n * min_bytes_per_elem can wrap on
    // a corrupt count when max_elems is large.
    if (n > max_elems || n > remaining() / min_bytes_per_elem) {
        ok_ = false;
        return 0;
    }
    return static_cast<std::size_t>(n);
}

// -- CkptWriter ------------------------------------------------------

void
CkptWriter::add_section(std::string name, ByteBuffer payload)
{
    std::uint32_t crc = crc32(payload.data(), payload.size());
    add_section(std::move(name), std::move(payload), crc);
}

void
CkptWriter::add_section(std::string name, ByteBuffer payload,
                        std::uint32_t crc)
{
    for (const Section &section : sections_)
        SDFM_ASSERT(section.name != name);
    SDFM_INVARIANT(crc == crc32(payload.data(), payload.size()),
                   "a precomputed section CRC matches its payload");
    sections_.push_back({std::move(name), std::move(payload), crc});
}

template <typename Sink>
void
CkptWriter::emit(Sink &&sink) const
{
    std::vector<const Section *> ordered;
    ordered.reserve(sections_.size());
    for (const Section &section : sections_)
        ordered.push_back(&section);
    // Sections are written in ascending name order so the container
    // bytes are independent of add_section() call order.
    std::sort(ordered.begin(), ordered.end(),
              [](const Section *a, const Section *b) {
                  return a->name < b->name;
              });

    Serializer header;
    header.put_u64(kCkptMagic);
    header.put_u32(kCkptFormatVersion);
    header.put_u32(static_cast<std::uint32_t>(ordered.size()));
    sink(header.bytes().data(), header.bytes().size());
    for (const Section *section : ordered) {
        Serializer framing;
        framing.put_u32(static_cast<std::uint32_t>(section->name.size()));
        framing.put_bytes(
            reinterpret_cast<const std::uint8_t *>(section->name.data()),
            section->name.size());
        framing.put_u64(section->payload.size());
        sink(framing.bytes().data(), framing.bytes().size());
        sink(section->payload.data(), section->payload.size());
        Serializer crc;
        crc.put_u32(section->crc);
        sink(crc.bytes().data(), crc.bytes().size());
    }
}

ByteBuffer
CkptWriter::encode() const
{
    Serializer s;
    emit([&s](const std::uint8_t *data, std::size_t size) {
        s.put_bytes(data, size);
    });
    return s.take();
}

CkptStatus
CkptWriter::write_file(const std::string &path) const
{
    // Write-to-temp + rename so a crash mid-write never leaves a
    // half-written file at the destination path.
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        return CkptStatus::kIoError;
    bool written = true;
    emit([&](const std::uint8_t *data, std::size_t size) {
        if (written && size != 0)
            written = std::fwrite(data, 1, size, f) == size;
    });
    bool flushed = std::fflush(f) == 0;
    bool closed = std::fclose(f) == 0;
    if (!written || !flushed || !closed) {
        std::remove(tmp.c_str());
        return CkptStatus::kIoError;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return CkptStatus::kIoError;
    }
    return CkptStatus::kOk;
}

// -- CkptReader ------------------------------------------------------

CkptStatus
CkptReader::parse(ByteBuffer bytes, ThreadPool *pool)
{
    bytes_ = ByteBuffer();
    sections_.clear();
    Deserializer d(bytes);
    if (d.remaining() < 8)
        return CkptStatus::kTruncated;
    if (d.get_u64() != kCkptMagic)
        return CkptStatus::kBadMagic;
    if (d.remaining() < 4)
        return CkptStatus::kTruncated;
    if (d.get_u32() != kCkptFormatVersion)
        return CkptStatus::kBadVersion;
    if (d.remaining() < 4)
        return CkptStatus::kTruncated;
    std::uint32_t count = d.get_u32();

    // Pass 1: framing only. Sections are recorded as views into
    // `bytes`, whose heap buffer moves into bytes_ unchanged.
    std::vector<CkptSection> sections;
    std::vector<std::uint32_t> stored_crcs;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (d.remaining() < 4)
            return CkptStatus::kTruncated;
        std::uint32_t name_len = d.get_u32();
        if (name_len > d.remaining())
            return CkptStatus::kTruncated;
        std::span<const std::uint8_t> name_bytes = d.get_bytes(name_len);
        std::string name(name_bytes.begin(), name_bytes.end());
        if (d.remaining() < 8)
            return CkptStatus::kTruncated;
        std::uint64_t payload_len = d.get_u64();
        if (payload_len > d.remaining())
            return CkptStatus::kTruncated;
        std::span<const std::uint8_t> payload =
            d.get_bytes(static_cast<std::size_t>(payload_len));
        if (d.remaining() < 4)
            return CkptStatus::kTruncated;
        stored_crcs.push_back(d.get_u32());
        // Ascending unique names are part of the format.
        if (!sections.empty() && sections.back().name >= name)
            return CkptStatus::kCorruptPayload;
        sections.push_back({std::move(name), payload});
    }
    if (!d.at_end())
        return CkptStatus::kCorruptPayload;
    SDFM_ASSERT(d.ok());

    // Pass 2: every payload CRC, before any section is exposed.
    std::vector<std::uint8_t> crc_ok(sections.size(), 0);
    auto check_crc = [&](std::size_t i) {
        std::span<const std::uint8_t> payload = sections[i].payload;
        crc_ok[i] = crc32(payload.data(), payload.size()) == stored_crcs[i];
    };
    if (pool != nullptr) {
        parallel_for(*pool, sections.size(), check_crc);
    } else {
        for (std::size_t i = 0; i < sections.size(); ++i)
            check_crc(i);
    }
    for (std::uint8_t ok : crc_ok) {
        if (!ok)
            return CkptStatus::kCrcMismatch;
    }
    bytes_ = std::move(bytes);
    sections_ = std::move(sections);
    return CkptStatus::kOk;
}

CkptStatus
CkptReader::read_file(const std::string &path, ThreadPool *pool)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return CkptStatus::kIoError;
    // Size the buffer from the file length and read it in one call; a
    // file that changes length underneath fails as an IO error.
    long length = -1;
    if (std::fseek(f, 0, SEEK_END) == 0) {
        length = std::ftell(f);
        if (std::fseek(f, 0, SEEK_SET) != 0)
            length = -1;
    }
    if (length < 0) {
        std::fclose(f);
        return CkptStatus::kIoError;
    }
    ByteBuffer bytes(static_cast<std::size_t>(length));
    std::size_t got =
        bytes.empty() ? 0 : std::fread(bytes.data(), 1, bytes.size(), f);
    bool complete = got == bytes.size() && std::fgetc(f) == EOF &&
                    std::ferror(f) == 0;
    std::fclose(f);
    if (!complete)
        return CkptStatus::kIoError;
    return parse(std::move(bytes), pool);
}

std::optional<std::span<const std::uint8_t>>
CkptReader::section(std::string_view name) const
{
    for (const CkptSection &section : sections_) {
        if (section.name == name)
            return section.payload;
    }
    return std::nullopt;
}

}  // namespace sdfm
