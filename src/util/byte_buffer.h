/**
 * @file
 * ByteBuffer: a growable byte array whose large buffers come straight
 * from the kernel and go back to it when freed. The checkpoint data
 * plane builds section payloads and reads container files in it.
 *
 * Through malloc, a buffer of a few megabytes lands in an allocator
 * arena once glibc's dynamic mmap threshold has risen past its size
 * (freeing any earlier mmap-sized chunk raises it), and after it is
 * freed it stays behind as heap that is never trimmed. Here, buffers
 * of at least kByteBufferMapBytes are private anonymous mappings:
 * growth moves them with mremap (no copy, no refault of the bytes
 * already written), capacities from 2 MiB up are whole huge pages
 * (madvise(MADV_HUGEPAGE), so first touch faults 2 MiB at a time), and
 * release unmaps them. Smaller buffers, and every buffer under
 * AddressSanitizer (which checks bounds only on memory it allocated)
 * or ThreadSanitizer (which does not see mremap, so a moved mapping
 * keeps the access history of whichever thread last mapped that
 * address, and unrelated buffers on two threads read as a race), use
 * malloc/realloc.
 */

#ifndef SDFM_UTIL_BYTE_BUFFER_H
#define SDFM_UTIL_BYTE_BUFFER_H

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <utility>

namespace sdfm {

/** Smallest capacity a ByteBuffer maps directly (glibc's default
 *  mmap threshold). */
inline constexpr std::size_t kByteBufferMapBytes = 128 * 1024;

class ByteBuffer
{
  public:
    using value_type = std::uint8_t;
    using iterator = std::uint8_t *;
    using const_iterator = const std::uint8_t *;

    ByteBuffer() = default;

    /** @p n zero bytes. */
    explicit ByteBuffer(std::size_t n) { resize(n); }

    ByteBuffer(std::initializer_list<std::uint8_t> bytes)
    {
        append(bytes.begin(), bytes.size());
    }

    template <std::input_iterator It, std::sentinel_for<It> End>
    ByteBuffer(It first, End last)
    {
        if constexpr (std::contiguous_iterator<It> &&
                      std::sized_sentinel_for<End, It>) {
            append(reinterpret_cast<const std::uint8_t *>(
                       std::to_address(first)),
                   static_cast<std::size_t>(last - first));
        } else {
            for (; first != last; ++first)
                push_back(static_cast<std::uint8_t>(*first));
        }
    }

    ByteBuffer(const ByteBuffer &other)
    {
        append(other.data(), other.size());
    }

    ByteBuffer(ByteBuffer &&other) noexcept
        : data_(std::exchange(other.data_, nullptr)),
          size_(std::exchange(other.size_, 0)),
          capacity_(std::exchange(other.capacity_, 0))
    {
    }

    ByteBuffer &
    operator=(ByteBuffer other) noexcept
    {
        std::swap(data_, other.data_);
        std::swap(size_, other.size_);
        std::swap(capacity_, other.capacity_);
        return *this;
    }

    ~ByteBuffer() { release(); }

    std::uint8_t *data() { return data_; }
    const std::uint8_t *data() const { return data_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    iterator begin() { return data_; }
    iterator end() { return data_ + size_; }
    const_iterator begin() const { return data_; }
    const_iterator end() const { return data_ + size_; }

    std::uint8_t &operator[](std::size_t i) { return data_[i]; }
    const std::uint8_t &operator[](std::size_t i) const { return data_[i]; }

    /** Grow (new bytes zeroed) or shrink to @p n bytes. */
    void
    resize(std::size_t n)
    {
        if (n > size_) {
            reserve(n);
            std::memset(data_ + size_, 0, n - size_);
        }
        size_ = n;
    }

    void
    push_back(std::uint8_t v)
    {
        if (size_ == capacity_)
            reserve(size_ + 1);
        data_[size_++] = v;
    }

    friend bool
    operator==(const ByteBuffer &a, const ByteBuffer &b)
    {
        return a.size_ == b.size_ &&
               (a.size_ == 0 || std::memcmp(a.data_, b.data_, a.size_) == 0);
    }

  private:
    /** Ensure capacity for @p n bytes; grows at least geometrically. */
    void
    reserve(std::size_t n)
    {
        if (n > capacity_)
            grow(n);
    }

    void
    append(const std::uint8_t *bytes, std::size_t n)
    {
        if (n == 0)
            return;
        std::size_t old = size_;
        reserve(old + n);
        std::memcpy(data_ + old, bytes, n);
        size_ = old + n;
    }

    void grow(std::size_t n);
    void release() noexcept;

    std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

}  // namespace sdfm

#endif  // SDFM_UTIL_BYTE_BUFFER_H
