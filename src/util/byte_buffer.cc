#include "util/byte_buffer.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdlib>
#include <new>

namespace sdfm {

namespace {

constexpr std::size_t kSmallPageBytes = 4096;
constexpr std::size_t kHugePageBytes = 2 * 1024 * 1024;

/** Whether a buffer of @p capacity bytes is a mapping of its own. */
bool
mapped(std::size_t capacity)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    (void)capacity;
    return false;
#else
    return capacity >= kByteBufferMapBytes;
#endif
}

std::size_t
round_up(std::size_t n, std::size_t unit)
{
    return (n + unit - 1) / unit * unit;
}

}  // namespace

void
ByteBuffer::grow(std::size_t n)
{
    std::size_t capacity = std::max(n, capacity_ * 2);
    if (!mapped(capacity)) {
        void *p = std::realloc(data_, capacity);
        if (p == nullptr)
            throw std::bad_alloc();
        data_ = static_cast<std::uint8_t *>(p);
        capacity_ = capacity;
        return;
    }
    const bool huge = capacity >= kHugePageBytes;
    capacity = round_up(capacity, huge ? kHugePageBytes : kSmallPageBytes);
    void *p = MAP_FAILED;
    if (mapped(capacity_)) {
        p = ::mremap(data_, capacity_, capacity, MREMAP_MAYMOVE);
    } else {
        p = ::mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p != MAP_FAILED) {
            if (size_ != 0)
                std::memcpy(p, data_, size_);
            std::free(data_);
        }
    }
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    // Advisory: without transparent huge pages the buffer still works,
    // it just faults 4 KiB at a time.
    if (huge)
        ::madvise(p, capacity, MADV_HUGEPAGE);
    data_ = static_cast<std::uint8_t *>(p);
    capacity_ = capacity;
}

void
ByteBuffer::release() noexcept
{
    if (mapped(capacity_))
        ::munmap(data_, capacity_);
    else
        std::free(data_);
}

}  // namespace sdfm
