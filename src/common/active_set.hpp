// A dense bitset over small integer ids (engine slots, mesh tiles) that
// is walked in ascending id order.
//
// The walk is what makes it a scheduler and not just a set: members
// added during a walk above the current position are visited by that
// same walk, members added at or below it wait for the next one. That
// is exactly how a plain `for (i = 0; i < n; ++i) if (active[i]) ...`
// loop treats flags raised from inside its body, so a walk visits the
// same ids in the same order as that loop while costing one bit scan
// per member instead of one check per id.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace glocks::common {

class ActiveSet {
 public:
  ActiveSet() = default;
  explicit ActiveSet(std::size_t n) { resize(n); }

  /// Grows the id range to [0, n); existing members are kept.
  void resize(std::size_t n) { words_.resize((n + 63) / 64, 0); }

  bool contains(std::size_t i) const {
    return (words_[i >> 6] & bit(i)) != 0;
  }
  void insert(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    if ((w & bit(i)) != 0) return;
    w |= bit(i);
    ++size_;
  }
  void erase(std::size_t i) {
    std::uint64_t& w = words_[i >> 6];
    if ((w & bit(i)) == 0) return;
    w &= ~bit(i);
    --size_;
  }
  bool empty() const { return size_ == 0; }

  /// Calls fn(i) for every member in ascending order. The current word is
  /// re-read after every call, so `fn` may insert and erase freely: an id
  /// inserted above `i` is visited by this walk, one at or below it is not.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t pending = words_[w];
      while (pending != 0) {
        const int b = std::countr_zero(pending);
        fn(w * 64 + static_cast<std::size_t>(b));
        pending = words_[w] & (~std::uint64_t{1} << b);  // bits above b
      }
    }
  }

 private:
  static std::uint64_t bit(std::size_t i) {
    return std::uint64_t{1} << (i & 63);
  }

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;  ///< members, so empty() reads no words
};

}  // namespace glocks::common
