// Ring: a FIFO over a power-of-two circular buffer.
//
// The simulator's per-tick queues (packet queues, the INT in-flight table)
// push at the back and pop at the front millions of times per run.  A
// std::deque frees and reallocates blocks as its contents wander; a Ring
// grows (doubling) the first time it holds more than ever before and then
// reuses its storage for the rest of the run, so steady-state pushes and
// pops allocate nothing.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/status.h"

namespace perfsight {

template <typename T>
class Ring {
 public:
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // The i-th element from the front.
  T& operator[](size_t i) { return slots_[(head_ + i) & mask()]; }
  T& front() { return slots_[head_]; }
  T& back() { return (*this)[size_ - 1]; }

  void push_back(T v) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask()] = std::move(v);
    ++size_;
  }

  void pop_front() {
    PS_CHECK(size_ > 0);
    head_ = (head_ + 1) & mask();
    --size_;
  }

 private:
  size_t mask() const { return slots_.size() - 1; }

  // Doubles the storage (first use: 8 slots), keeping FIFO order.
  void grow() {
    std::vector<T> bigger(slots_.empty() ? 8 : 2 * slots_.size());
    for (size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace perfsight
