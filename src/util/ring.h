/**
 * @file
 * A FIFO in one contiguous buffer, for the simulator's hardware queues:
 * stream buffers, address FIFOs, indexed data buffers, the SRF's remote
 * and return queues and the clusters' per-slot work queues.
 */
#ifndef ISRF_UTIL_RING_H
#define ISRF_UTIL_RING_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/log.h"

namespace isrf {

/**
 * A FIFO whose storage outlives clear() and reset(), so a queue that is
 * refilled stops allocating once warm. reset(cap) empties it and fixes
 * its capacity: push() past it panics. pushGrow() doubles the capacity
 * instead, for queues that no geometric or per-iteration count bounds.
 * push_back() is pushGrow(), so SnapshotIo::seq can refill a ring like
 * a std::deque; a loader bounds the length first where the capacity is
 * fixed.
 */
template <typename T>
class Ring
{
  public:
    using value_type = T;

    /** Forward iteration, oldest first. */
    template <typename R, typename V>
    class Iter
    {
      public:
        Iter(R *r, size_t i) : r_(r), i_(i) {}
        V &operator*() const { return (*r_)[i_]; }
        Iter &operator++() { i_++; return *this; }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

      private:
        R *r_;
        size_t i_;
    };
    using iterator = Iter<Ring, T>;
    using const_iterator = Iter<const Ring, const T>;

    void
    reset(size_t cap)
    {
        if (buf_.size() < cap)
            buf_.resize(cap);
        cap_ = cap;
        clear();
    }

    /** Empty, keeping the capacity. */
    void clear() { head_ = size_ = 0; }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == cap_; }
    size_t capacity() const { return cap_; }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    /** The i-th oldest element. */
    T &operator[](size_t i) { return buf_[wrap(head_ + i)]; }
    const T &operator[](size_t i) const { return buf_[wrap(head_ + i)]; }

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

    void
    push(const T &v)
    {
        if (size_ == cap_)
            panic("Ring: push past capacity %zu", cap_);
        buf_[wrap(head_ + size_)] = v;
        size_++;
    }

    void
    pushGrow(const T &v)
    {
        if (size_ == cap_) {
            std::vector<T> next(std::max<size_t>(8, 2 * cap_));
            for (size_t i = 0; i < size_; i++)
                next[i] = (*this)[i];
            buf_.swap(next);
            cap_ = buf_.size();
            head_ = 0;
        }
        push(v);
    }

    void push_back(const T &v) { pushGrow(v); }

    void
    pop()
    {
        head_ = wrap(head_ + 1);
        size_--;
    }

  private:
    size_t wrap(size_t i) const { return i >= cap_ ? i - cap_ : i; }

    std::vector<T> buf_;
    size_t cap_ = 0;
    size_t head_ = 0;
    size_t size_ = 0;
};

} // namespace isrf

#endif // ISRF_UTIL_RING_H
