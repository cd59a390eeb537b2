// Single-writer seqlock ring and the per-thread registry that holds such
// rings (DESIGN.md §6, §11). The flight recorder's event rings and the
// profiler's CPU and allocation sample rings are all this one type; this
// header is the only place that touches a ring's `head` or decides whether
// a copied slot was lapped.
//
// Protocol. A ring is kCapacity slots of kWords std::atomic<uint64_t> words
// plus `head`, the number of slots ever published. Exactly one writer (the
// owning thread, or its own signal handler) fills slot `head % kCapacity`
// and then publishes head + 1. Readers run concurrently on other threads or
// in signal context: a reader loads head, copies each slot it wants, then
// re-loads head; if head has reached seq + kCapacity the writer has started
// (not necessarily finished) overwriting that slot, so the copy may mix two
// events and is discarded as lapped. `>=`, not `>`: at head == seq +
// kCapacity the overwrite of slot seq is already in flight, since head
// publishes only after the slot stores.
//
// Ordering under the C++ memory model (Boehm, "Can seqlocks get along with
// programming language memory models?", MSPC 2012). Two orderings make the
// lap check sound, and the code gets both from acquire/release on the slot
// words rather than from std::atomic_thread_fence, which GCC flags under
// -fsanitize=thread (-Wtsan) and TSan does not model:
//   - Writer: the previous head publish must be ordered before the next
//     slot overwrite. Every slot store is a release, so the head store that
//     precedes it in program order happens-before any reader load that
//     observes the new word.
//   - Reader: the slot loads must be ordered before the head re-read. Every
//     slot load is an acquire, so the re-read cannot be satisfied ahead of
//     the loads, and a load that observed an overwriting store sees (by
//     write-read coherence) a head of at least seq + kCapacity.
// The first head load is an acquire pairing with the release head store, so
// the words of every slot below it are visible. On x86-64 release stores and
// acquire loads are plain moves: the writer's code is what relaxed stores
// produced. Elsewhere they are the barriers the protocol needs.
//
// Publish and Read use only atomics on preallocated memory: both are
// async-signal-safe, and Read hands each surviving slot to a caller sink so
// a signal-time dump never allocates.

#ifndef SRC_OBS_SEQLOCK_RING_H_
#define SRC_OBS_SEQLOCK_RING_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace indaas {
namespace obs {

template <size_t kWords, size_t kCapacity>
class SeqlockRing {
 public:
  using Words = std::array<uint64_t, kWords>;

  // What one Read() saw. `next` is the head the read started from: pass it
  // as the next `from` to resume without re-reading a slot. `dropped`
  // counts the slots in [from, next) the sink never saw: overwritten before
  // the read began, or lapped during the copy.
  struct ReadResult {
    uint64_t next = 0;
    uint64_t dropped = 0;
  };

  // Writer only. Stores words[0, count) into the next slot and publishes
  // it; words [count, kWords) keep whatever an earlier lap left there.
  void Publish(const Words& words, size_t count = kWords) {
    const uint64_t seq = head_.load(std::memory_order_relaxed);  // sole writer
    std::array<std::atomic<uint64_t>, kWords>& slot = slots_[seq % kCapacity];
    // Unrolled so a full-slot publish compiles to straight-line stores.
#pragma GCC unroll 8
    for (size_t i = 0; i < count; ++i) slot[i].store(words[i], std::memory_order_release);
    head_.store(seq + 1, std::memory_order_release);
  }

  // Copies every slot in [from, head) the writer has not lapped, oldest
  // first, calling sink(const Words&) on each. `from` must not exceed a
  // head this ring has published (0 reads everything still retained).
  template <typename Sink>
  ReadResult Read(uint64_t from, Sink&& sink) const {
    ReadResult result;
    result.next = head_.load(std::memory_order_acquire);
    if (result.next - from > kCapacity) {
      result.dropped = result.next - kCapacity - from;
      from = result.next - kCapacity;
    }
    for (uint64_t seq = from; seq < result.next; ++seq) {
      const std::array<std::atomic<uint64_t>, kWords>& slot = slots_[seq % kCapacity];
      Words words{};
      for (size_t i = 0; i < kWords; ++i) words[i] = slot[i].load(std::memory_order_acquire);
      if (head_.load(std::memory_order_relaxed) >= seq + kCapacity) {
        ++result.dropped;
        continue;
      }
      sink(words);
    }
    return result;
  }

  // Slots published so far; a reader that resumes from here skips them.
  uint64_t head() const { return head_.load(std::memory_order_acquire); }

 private:
  std::array<std::array<std::atomic<uint64_t>, kWords>, kCapacity> slots_{};
  std::atomic<uint64_t> head_{0};
};

// Fixed-capacity registry of per-thread entries that a signal handler can
// walk without a lock: entries are installed left to right into an array
// of atomic pointers and never freed. A thread that exits parks its entry
// (Park) and a later thread adopts it, so the registry holds at most one
// entry per concurrently live thread rather than one per thread ever made.
// `Entry` must be default-constructible and have a `std::atomic<bool>
// in_use` member; only the registry and Park write it.
template <typename Entry, size_t kMaxEntries>
class ThreadRegistry {
 public:
  // Claims a parked entry, or installs a fresh one in the first empty
  // position. Returns nullptr once kMaxEntries threads hold entries. Takes
  // a lock (installs are serialized), so never call it from a signal
  // handler; Park and ForEach stay lock-free.
  Entry* Acquire() {
    std::lock_guard<std::mutex> lock(acquire_mu_);
    for (size_t i = 0; i < kMaxEntries; ++i) {
      Entry* entry = entries_[i].load(std::memory_order_acquire);
      if (entry == nullptr) {
        entry = new Entry();
        entry->in_use.store(true, std::memory_order_relaxed);
        entries_[i].store(entry, std::memory_order_release);
        return entry;
      }
      bool parked = false;
      if (entry->in_use.compare_exchange_strong(parked, true, std::memory_order_acq_rel)) {
        return entry;
      }
    }
    return nullptr;
  }

  // Returns `entry` to the registry for a later thread to adopt.
  static void Park(Entry* entry) { entry->in_use.store(false, std::memory_order_release); }

  // Calls fn(Entry&) on every installed entry, live or parked.
  // Async-signal-safe when fn is.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i = 0; i < kMaxEntries; ++i) {
      Entry* entry = entries_[i].load(std::memory_order_acquire);
      if (entry == nullptr) return;
      fn(*entry);
    }
  }

 private:
  std::mutex acquire_mu_;
  std::array<std::atomic<Entry*>, kMaxEntries> entries_{};
};

}  // namespace obs
}  // namespace indaas

#endif  // SRC_OBS_SEQLOCK_RING_H_
