// The one LRU cache behind every cache in the system: engine tables, copy
// plans, region plans and compiled programs.
//
// One mutex guards one intrusive recency list and one hash map. Eviction is
// exact global LRU: the entry least recently found or inserted goes first.
// The cached artifacts are immutable once built and fully determined by
// their key, so:
//   - insert is keep-existing: when two threads build the same value after
//     racing through a miss, the first insert wins and both converge on one
//     canonical object (the dedup AddressEngine relies on for table sharing);
//   - find returns std::nullopt on a miss, so a stored value that is itself
//     "empty" (a null shared_ptr) is a cached negative result, not a miss.
//
// Values are usually shared_ptr<const T>: readers leave the lock with a
// refcounted handle, and an evicted value stays alive for every holder.
// Dependency-free beyond types.hpp so every layer can share it.
#pragma once

#include <cstddef>
#include <list>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>

#include "cyclick/support/types.hpp"

namespace cyclick {

/// Counter snapshot of an LruCache (and of every cache built on one).
struct LruStats {
  i64 hits = 0;
  i64 misses = 0;
  i64 evictions = 0;
  std::size_t size = 0;
};

template <typename Key, typename Value, typename Hash = std::hash<Key>>
class LruCache {
 public:
  explicit LruCache(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Look up `key`; counts a hit (refreshing recency) or a miss.
  [[nodiscard]] std::optional<Value> find(const Key& key) {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  /// Insert `value` under `key`, evicting the least recently used entry when
  /// over capacity. Keep-existing: if the key is already present the stored
  /// value is refreshed in recency and returned unchanged. There is
  /// deliberately no replace path; a caller that needs one must clear()
  /// first. `evicted`, when non-null, reports whether this insert displaced
  /// an entry (callers mirror it into their own obs counters).
  Value insert(const Key& key, Value value, bool* evicted = nullptr) {
    if (evicted != nullptr) *evicted = false;
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    lru_.emplace_front(key, std::move(value));
    map_.emplace(key, lru_.begin());
    if (map_.size() > capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
      if (evicted != nullptr) *evicted = true;
    }
    return lru_.front().second;
  }

  /// Drop every entry and zero the hit/miss/eviction counters.
  void clear() {
    const std::lock_guard<std::mutex> lock(mu_);
    map_.clear();
    lru_.clear();
    hits_ = misses_ = evictions_ = 0;
  }

  [[nodiscard]] LruStats stats() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return LruStats{hits_, misses_, evictions_, map_.size()};
  }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  using ListEntry = std::pair<Key, Value>;

  mutable std::mutex mu_;
  std::size_t capacity_;
  std::list<ListEntry> lru_;  // front = most recent
  std::unordered_map<Key, typename std::list<ListEntry>::iterator, Hash> map_;
  i64 hits_ = 0;
  i64 misses_ = 0;
  i64 evictions_ = 0;
};

}  // namespace cyclick
