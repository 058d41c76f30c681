// Small-buffer vector for the simulation hot path.
//
// Every processor of the simulated network owns a queue that holds a
// handful of packets (the multi-packet model's O(1) — measured maxima are
// 5-25 across all experiments, and 1-4 almost everywhere). std::vector puts
// even a single packet on the heap; InlineVec keeps up to `N` elements in
// the object itself and only falls back to the heap beyond that, removing
// the per-processor allocations from the engine's rebuild loop.
//
// Deliberately minimal: restricted to trivially copyable element types
// (Packet is), so growth and copies are memcpy and no destructors are ever
// run element-wise. Provides exactly the std::vector surface the engine,
// algorithms, and tests use.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>

namespace mdmesh {

template <typename T, std::size_t N = 4>
class InlineVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "InlineVec is restricted to trivially copyable types");
  static_assert(N >= 1, "inline capacity must be positive");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  InlineVec() = default;

  InlineVec(const InlineVec& other) { CopyFrom(other); }

  InlineVec& operator=(const InlineVec& other) {
    if (this != &other) {
      Release();
      CopyFrom(other);
    }
    return *this;
  }

  InlineVec(InlineVec&& other) noexcept { MoveFrom(std::move(other)); }

  InlineVec& operator=(InlineVec&& other) noexcept {
    if (this != &other) {
      Release();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  ~InlineVec() { Release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::size_t capacity() const { return cap_; }

  T* data() { return data_; }
  const T* data() const { return data_; }
  iterator begin() { return data_; }
  iterator end() { return data_ + size_; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }

  T& operator[](std::size_t i) {
    assert(i < size_);
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < size_);
    return data_[i];
  }
  T& front() { return (*this)[0]; }
  T& back() { return (*this)[size_ - 1]; }
  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void clear() { size_ = 0; }  // keeps the buffer
  /// Empties the vector and frees a heap buffer: back to inline storage.
  void reset() { Release(); }

  void reserve(std::size_t want) {
    if (want <= cap_) return;
    Grow(want);
  }

  void push_back(const T& value) {
    if (size_ == cap_) {
      // `value` may alias an element of this vector (v.push_back(v[0]));
      // Grow frees the old heap buffer, so copy first.
      const T tmp = value;
      Grow(cap_ * 2);
      data_[size_++] = tmp;
      return;
    }
    data_[size_++] = value;
  }

  void pop_back() {
    assert(size_ > 0);
    --size_;
  }

  /// New elements are value-initialized.
  void resize(std::size_t want) {
    if (want > cap_) Grow(std::max(want, cap_ * 2));
    if (want > size_) {
      std::memset(static_cast<void*>(data_ + size_), 0,
                  (want - size_) * sizeof(T));
    }
    size_ = want;
  }

  template <typename It>
  void assign(It first, It last) {
    clear();
    for (; first != last; ++first) push_back(*first);
  }

  /// Erases [first, last); the std::remove_if idiom.
  iterator erase(iterator first, iterator last) {
    assert(begin() <= first && first <= last && last <= end());
    const auto tail = static_cast<std::size_t>(end() - last);
    if (tail > 0) {
      std::memmove(static_cast<void*>(first), static_cast<const void*>(last),
                   tail * sizeof(T));
    }
    size_ -= static_cast<std::size_t>(last - first);
    return first;
  }

  /// Starts loading what a first access reads: the size field, which
  /// sits after the inline buffer, and the first inline element. Touches
  /// no memory itself.
  void Prefetch() const {
    __builtin_prefetch(&size_);
    __builtin_prefetch(inline_ + sizeof(T) - 1);
  }

  friend bool operator==(const InlineVec& a, const InlineVec& b) {
    return a.size_ == b.size_ &&
           std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  bool on_heap() const { return data_ != InlineData(); }
  T* InlineData() { return reinterpret_cast<T*>(inline_); }
  const T* InlineData() const { return reinterpret_cast<const T*>(inline_); }

  void Grow(std::size_t want) {
    const std::size_t new_cap = std::max<std::size_t>(want, N + 1);
    T* fresh = static_cast<T*>(::operator new(new_cap * sizeof(T)));
    std::memcpy(static_cast<void*>(fresh), static_cast<const void*>(data_),
                size_ * sizeof(T));
    if (on_heap()) ::operator delete(data_);
    data_ = fresh;
    cap_ = new_cap;
  }

  void Release() {
    if (on_heap()) ::operator delete(data_);
    data_ = InlineData();
    cap_ = N;
    size_ = 0;
  }

  void CopyFrom(const InlineVec& other) {
    if (other.size_ > N) {
      data_ = static_cast<T*>(::operator new(other.size_ * sizeof(T)));
      cap_ = other.size_;
    } else {
      data_ = InlineData();
      cap_ = N;
    }
    size_ = other.size_;
    std::memcpy(static_cast<void*>(data_), static_cast<const void*>(other.data_),
                size_ * sizeof(T));
  }

  void MoveFrom(InlineVec&& other) {
    if (other.on_heap()) {
      data_ = other.data_;
      cap_ = other.cap_;
      size_ = other.size_;
      other.data_ = other.InlineData();
      other.cap_ = N;
      other.size_ = 0;
    } else {
      data_ = InlineData();
      cap_ = N;
      size_ = other.size_;
      std::memcpy(static_cast<void*>(data_),
                  static_cast<const void*>(other.data_), size_ * sizeof(T));
      other.size_ = 0;
    }
  }

  alignas(T) unsigned char inline_[N * sizeof(T)];
  T* data_ = InlineData();
  std::size_t cap_ = N;
  std::size_t size_ = 0;
};

}  // namespace mdmesh
