/**
 * @file
 * A growable FIFO ring: the storage of every hot-path queue (router and
 * NI virtual-channel buffers, channel queues, the core ROB).
 */

#ifndef STACKNOC_SIM_RING_HH
#define STACKNOC_SIM_RING_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>

#include "common/logging.hh"

namespace stacknoc {

/**
 * A FIFO over one power-of-two block of slots, indexed by a head and a
 * size under a mask.
 *
 * push_back() doubles the block only when the ring is full, so a ring
 * reserved to a bound its user enforces (a credit-bounded VC buffer,
 * the ROB) never reallocates. pop_front() resets the vacated slot to
 * T{}, so a held value (a PacketPtr) is released when it leaves, not
 * when its slot is next overwritten. Iteration and operator[] are
 * oldest first: index 0 is front().
 *
 * The empty-ring and out-of-range preconditions panic only in builds
 * with _GLIBCXX_ASSERTIONS (the sanitizer preset); release builds
 * leave them unchecked, as std::deque does.
 *
 * A ring moves but does not copy. T must be default-constructible and
 * move-assignable.
 */
template <typename T>
class Ring
{
  public:
    using value_type = T;
    using size_type = std::size_t;

    /** Forward iterator, oldest element first. */
    class const_iterator
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = const T *;
        using reference = const T &;

        const_iterator() = default;
        const_iterator(const Ring *ring, size_type i) : ring_(ring), i_(i)
        {
        }

        reference operator*() const { return (*ring_)[i_]; }
        pointer operator->() const { return &(*ring_)[i_]; }

        const_iterator &
        operator++()
        {
            ++i_;
            return *this;
        }

        const_iterator
        operator++(int)
        {
            const_iterator old = *this;
            ++i_;
            return old;
        }

        bool
        operator==(const const_iterator &o) const
        {
            return i_ == o.i_;
        }

      private:
        const Ring *ring_ = nullptr;
        size_type i_ = 0;
    };

    Ring() = default;

    /** A moved-from ring is empty, with no block. */
    Ring(Ring &&o) noexcept
        : slots_(std::move(o.slots_)), head_(std::exchange(o.head_, 0)),
          size_(std::exchange(o.size_, 0)), mask_(std::exchange(o.mask_, 0)),
          cap_(std::exchange(o.cap_, 0))
    {
    }

    Ring &
    operator=(Ring &&o) noexcept
    {
        slots_ = std::move(o.slots_);
        head_ = std::exchange(o.head_, 0);
        size_ = std::exchange(o.size_, 0);
        mask_ = std::exchange(o.mask_, 0);
        cap_ = std::exchange(o.cap_, 0);
        return *this;
    }

    size_type size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slots in the block; size() may reach it before the ring grows. */
    size_type capacity() const { return cap_; }

    /** Grow the block (to a power of two) to hold at least @p n. */
    void
    reserve(size_type n)
    {
        if (n > capacity())
            regrow(std::bit_ceil(n));
    }

    void push_back(const T &value) { push_back(T(value)); }

    void
    push_back(T &&value)
    {
        if (size_ == capacity()) {
            // @p value may be an element of this ring (a rotation
            // pushes its own front): take it out before the old block
            // goes.
            T held(std::move(value));
            regrow(cap_ == 0 ? 1 : 2 * capacity());
            slots_[size_] = std::move(held); // regrow() put head_ at 0
        } else {
            slots_[(head_ + size_) & mask_] = std::move(value);
        }
        ++size_;
    }

    template <typename... Args>
    void
    emplace_back(Args &&...args)
    {
        push_back(T(std::forward<Args>(args)...));
    }

    /** Drop the oldest element, releasing what its slot held. */
    void
    pop_front()
    {
        check(size_ != 0, "pop_front");
        slots_[head_] = T{};
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Drop every element (the block is kept). */
    void
    clear()
    {
        while (size_ != 0)
            pop_front();
        head_ = 0;
    }

    T &
    front()
    {
        check(size_ != 0, "front");
        return slots_[head_];
    }

    const T &
    front() const
    {
        check(size_ != 0, "front");
        return slots_[head_];
    }

    T &
    back()
    {
        check(size_ != 0, "back");
        return slots_[(head_ + size_ - 1) & mask_];
    }

    /** The @p i-th oldest element. */
    T &
    operator[](size_type i)
    {
        check(i < size_, "operator[]");
        return slots_[(head_ + i) & mask_];
    }

    const T &
    operator[](size_type i) const
    {
        check(i < size_, "operator[]");
        return slots_[(head_ + i) & mask_];
    }

    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    /** Move the elements, oldest first, into a block of @p cap slots. */
    void
    regrow(size_type cap)
    {
        panic_if(cap > (size_type{1} << 31), "Ring: %zu slots is too many",
                 cap);
        std::unique_ptr<T[]> block(new T[cap]());
        for (std::uint32_t i = 0; i < size_; ++i)
            block[i] = std::move(slots_[(head_ + i) & mask_]);
        slots_ = std::move(block);
        head_ = 0;
        cap_ = static_cast<std::uint32_t>(cap);
        mask_ = cap_ - 1;
    }

    static void
    check([[maybe_unused]] bool ok, [[maybe_unused]] const char *op)
    {
#ifdef _GLIBCXX_ASSERTIONS
        panic_if(!ok, "Ring::%s: precondition violated", op);
#endif
    }

    /** 32-bit indices keep a ring at 24 bytes, so a router's VCs stay
     *  dense; regrow() refuses a block they cannot index. */
    std::unique_ptr<T[]> slots_;
    std::uint32_t head_ = 0;
    std::uint32_t size_ = 0;
    std::uint32_t mask_ = 0;
    std::uint32_t cap_ = 0;
};

} // namespace stacknoc

#endif // STACKNOC_SIM_RING_HH
