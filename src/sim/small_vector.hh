/**
 * @file
 * SmallVector: a vector that keeps its first N elements inline and
 * spills to the heap only beyond them — for the per-block and per-miss
 * lists of the memory system (directory sharers, MSHR waiters), which
 * almost always hold one or two entries but must still accept many.
 *
 * A default-constructed, cleared or moved-from SmallVector owns no heap
 * memory while it holds at most N elements, so tables of them (FlatMap
 * slots, which are default-constructed on rehash and erase) allocate
 * nothing for the common case. clear() keeps a spilled buffer, like
 * std::vector, so churn after the first spill does not allocate either.
 */

#ifndef RASIM_SIM_SMALL_VECTOR_HH
#define RASIM_SIM_SMALL_VECTOR_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace rasim
{

template <typename T, std::size_t N>
class SmallVector
{
    static_assert(N > 0, "use std::vector for no inline storage");
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                  "over-aligned element");

  public:
    SmallVector() = default;

    SmallVector(const SmallVector &o)
    {
        reserve(o.size_);
        for (std::uint32_t i = 0; i < o.size_; ++i)
            new (data_ + i) T(o.data_[i]);
        size_ = o.size_;
    }

    SmallVector(SmallVector &&o) noexcept { takeFrom(o); }

    SmallVector &
    operator=(const SmallVector &o)
    {
        if (this != &o) {
            clear();
            reserve(o.size_);
            for (std::uint32_t i = 0; i < o.size_; ++i)
                new (data_ + i) T(o.data_[i]);
            size_ = o.size_;
        }
        return *this;
    }

    SmallVector &
    operator=(SmallVector &&o) noexcept
    {
        if (this != &o) {
            clear();
            releaseHeap();
            takeFrom(o);
        }
        return *this;
    }

    ~SmallVector()
    {
        clear();
        releaseHeap();
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    std::size_t capacity() const { return cap_; }
    /** True while the elements live in the inline buffer. */
    bool isInline() const { return data_ == inlineData(); }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ < cap_)
            return *new (data_ + size_++) T(std::forward<Args>(args)...);
        // Full: build the new element in the new buffer before moving
        // the old ones, since an argument may refer to one of them.
        std::size_t cap = std::size_t{cap_} * 2;
        T *fresh = allocate(cap);
        new (fresh + size_) T(std::forward<Args>(args)...);
        adopt(fresh, cap);
        return data_[size_++];
    }

    void push_back(const T &v) { emplace_back(v); }
    void push_back(T &&v) { emplace_back(std::move(v)); }

    /** Insert @p v before @p pos; @return the inserted element. */
    T *
    insert(const T *pos, T v)
    {
        std::size_t at = static_cast<std::size_t>(pos - data_);
        emplace_back(std::move(v));
        std::rotate(data_ + at, data_ + size_ - 1, data_ + size_);
        return data_ + at;
    }

    /** Destroy every element; a spilled buffer is kept for reuse. */
    void
    clear()
    {
        for (std::uint32_t i = 0; i < size_; ++i)
            data_[i].~T();
        size_ = 0;
    }

    void
    reserve(std::size_t n)
    {
        if (n > cap_)
            grow(n);
    }

  private:
    T *inlineData() { return inline_.items; }
    const T *inlineData() const { return inline_.items; }

    /** Move @p o's elements (or its heap buffer) into this empty,
     *  inline vector, leaving @p o empty and inline. */
    void
    takeFrom(SmallVector &o) noexcept
    {
        if (!o.isInline()) {
            data_ = o.data_;
            cap_ = o.cap_;
            size_ = o.size_;
            o.data_ = o.inlineData();
            o.cap_ = N;
            o.size_ = 0;
            return;
        }
        for (std::uint32_t i = 0; i < o.size_; ++i) {
            new (data_ + i) T(std::move(o.data_[i]));
            o.data_[i].~T();
        }
        size_ = o.size_;
        o.size_ = 0;
    }

    static T *
    allocate(std::size_t cap)
    {
        return static_cast<T *>(::operator new(cap * sizeof(T)));
    }

    void grow(std::size_t cap) { adopt(allocate(cap), cap); }

    /** Move the elements into @p fresh (capacity @p cap) and use it. */
    void
    adopt(T *fresh, std::size_t cap)
    {
        for (std::uint32_t i = 0; i < size_; ++i) {
            new (fresh + i) T(std::move(data_[i]));
            data_[i].~T();
        }
        releaseHeap();
        data_ = fresh;
        cap_ = static_cast<std::uint32_t>(cap);
    }

    /** Free a spilled buffer (elements already destroyed or moved). */
    void
    releaseHeap()
    {
        if (!isInline()) {
            ::operator delete(data_);
            data_ = inlineData();
            cap_ = N;
        }
    }

    /** Raw inline storage: elements are constructed into items[] on
     *  demand, so the union neither constructs nor destroys them. */
    union Inline
    {
        Inline() {}
        ~Inline() {}
        T items[N];
    };

    T *data_ = inlineData();
    std::uint32_t size_ = 0;
    std::uint32_t cap_ = N;
    Inline inline_;
};

} // namespace rasim

#endif // RASIM_SIM_SMALL_VECTOR_HH
