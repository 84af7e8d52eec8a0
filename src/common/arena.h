// Per-run bump allocator.
//
// A simulation run's scratch buffers (dirty-processor words, advance-loop
// snapshots, timing-wheel drain staging) are all sized once from the task
// system and live exactly as long as the run. Giving them individual
// heap allocations scatters them across the address space and — worse —
// puts vector-growth reallocation on the hot path. The arena carves them
// out of a handful of large blocks instead: allocation is a pointer bump,
// locality follows allocation order, and reset() recycles every block for
// the next run without returning memory to the OS. Blocks are not
// zero-filled: a caller that knows its total (the engine does) sizes the
// first block to it and pays for exactly the bytes it carves.
//
// Not a general-purpose allocator: no per-object free, trivially-
// destructible payloads only (nothing runs destructors), single-threaded.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/check.h"

namespace mpcp {

class Arena {
 public:
  static constexpr std::size_t kDefaultBlockBytes = 64 * 1024;

  explicit Arena(std::size_t first_block_bytes = kDefaultBlockBytes)
      : next_block_bytes_(first_block_bytes > 0 ? first_block_bytes
                                                : kDefaultBlockBytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns uninitialized storage for `n` objects of T, aligned to
  /// alignof(T). T must be trivially destructible (nothing is ever
  /// destroyed). n == 0 returns a non-null, properly aligned pointer.
  template <typename T>
  [[nodiscard]] T* alloc(std::size_t n) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    return static_cast<T*>(allocBytes(n * sizeof(T), alignof(T)));
  }

  /// Returns zero-initialized storage for `n` objects of T.
  template <typename T>
  [[nodiscard]] T* allocZeroed(std::size_t n) {
    T* p = alloc<T>(n);
    for (std::size_t i = 0; i < n; ++i) p[i] = T{};
    return p;
  }

  /// Rewinds every block for reuse. Previously returned pointers become
  /// dangling; block storage (and hence highWater capacity) is kept.
  void reset() {
    for (Block& b : blocks_) b.used = 0;
    current_ = 0;
    bytes_used_ = 0;
  }

  /// Bytes handed out since construction / last reset() (including
  /// alignment padding).
  [[nodiscard]] std::size_t bytesUsed() const { return bytes_used_; }

  /// Maximum bytesUsed() ever observed — sizes the next run's first block.
  [[nodiscard]] std::size_t highWater() const { return high_water_; }

  /// Total bytes owned across all blocks.
  [[nodiscard]] std::size_t bytesReserved() const {
    std::size_t total = 0;
    for (const Block& b : blocks_) total += b.size;
    return total;
  }

  [[nodiscard]] std::size_t blockCount() const { return blocks_.size(); }

 private:
  struct Block {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] void* allocBytes(std::size_t bytes, std::size_t align) {
    MPCP_CHECK(align > 0 && (align & (align - 1)) == 0,
               "Arena: alignment must be a power of two");
    // Find (or create) a block with room for the aligned request.
    while (true) {
      if (current_ >= blocks_.size()) {
        const std::size_t want = bytes + align;
        std::size_t size = next_block_bytes_;
        while (size < want) size *= 2;
        blocks_.push_back(
            {std::make_unique_for_overwrite<std::byte[]>(size), size, 0});
        next_block_bytes_ = size * 2;  // geometric growth
      }
      Block& b = blocks_[current_];
      const auto base = reinterpret_cast<std::uintptr_t>(b.data.get());
      const std::size_t aligned =
          (static_cast<std::size_t>(base) + b.used + align - 1) & ~(align - 1);
      const std::size_t offset = aligned - static_cast<std::size_t>(base);
      if (offset + bytes <= b.size) {
        const std::size_t consumed = offset + bytes - b.used;
        b.used = offset + bytes;
        bytes_used_ += consumed;
        if (bytes_used_ > high_water_) high_water_ = bytes_used_;
        return b.data.get() + offset;
      }
      ++current_;  // block full; spill to the next (or grow)
    }
  }

  std::vector<Block> blocks_;
  std::size_t current_ = 0;
  std::size_t next_block_bytes_;
  std::size_t bytes_used_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace mpcp
