#include "src/sia/cutset.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "src/obs/metrics.h"

namespace indaas {

EventIndex::EventIndex(const FaultGraph& graph) {
  bit_of_.assign(graph.NodeCount(), SIZE_MAX);
  id_of_ = graph.BasicEvents();
  for (size_t bit = 0; bit < id_of_.size(); ++bit) {
    bit_of_[id_of_[bit]] = bit;
  }
  stride_ = std::max<size_t>(1, (id_of_.size() + 63) / 64);
}

LazyPool::LazyPool(size_t threads) : threads_(threads) {
  if (threads_ == 0) {
    // Read once: hardware_concurrency() costs a few microseconds per call,
    // a visible share of a small audit.
    static const size_t hardware = std::max<size_t>(1, std::thread::hardware_concurrency());
    threads_ = hardware;
  }
}

ThreadPool* LazyPool::Get() {
  if (threads_ <= 1) {
    return nullptr;
  }
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(threads_);
  }
  return pool_.get();
}

namespace {

// Inputs this small skip the fingerprint table and the key-bit index: a
// fingerprint-prechecked quadratic scan and one survivor bucket beat their
// setup.
constexpr size_t kSmallAbsorb = 64;
// A popcount level is sharded across the pool only when its indexed subset
// work (candidate words × survivors in the candidate's buckets) reaches this
// many word operations; each shard then gets about kAbsorbShardWork.
constexpr size_t kParallelAbsorbWork = size_t{1} << 22;
constexpr size_t kAbsorbShardWork = size_t{1} << 18;

// Calls fn(bit) for every set bit of `row`, low to high.
template <typename Fn>
inline void ForEachBit(const uint64_t* row, size_t stride, Fn&& fn) {
  for (size_t w = 0; w < stride; ++w) {
    uint64_t word = row[w];
    while (word != 0) {
      fn(w * 64 + static_cast<size_t>(__builtin_ctzll(word)));
      word &= word - 1;
    }
  }
}

// True if any of the `count` rows stored contiguously at `rows` is a subset
// of `row`. A nonzero kStride fixes the row width at compile time so the
// common one- and two-word scans unroll; 0 reads it from `stride`.
template <size_t kStride>
bool AnySubsetOf(const uint64_t* rows, size_t count, const uint64_t* row, size_t stride) {
  const size_t width = kStride != 0 ? kStride : stride;
  for (const uint64_t* end = rows + count * width; rows != end; rows += width) {
    if (RowSubsetOf(rows, row, width)) {
      return true;
    }
  }
  return false;
}

// Distinct rows of `sets` in (popcount, first-appearance) order. `pc` holds
// each row's popcount.
std::vector<size_t> DistinctByPopcount(const CutSetArena& sets, const std::vector<uint32_t>& pc) {
  const size_t n = sets.size();
  const size_t stride = sets.stride();
  // Counting sort by popcount: stable, so rows keep first-appearance order
  // within a level.
  std::vector<size_t> level_pos(stride * 64 + 2, 0);
  for (size_t i = 0; i < n; ++i) {
    ++level_pos[pc[i] + 1];
  }
  for (size_t p = 1; p < level_pos.size(); ++p) {
    level_pos[p] += level_pos[p - 1];
  }
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[level_pos[pc[i]]++] = i;
  }

  // Exact-duplicate elimination: equal rows share a fingerprint, a full word
  // compare disambiguates collisions, and the first row in `order` wins.
  std::vector<size_t> distinct;
  distinct.reserve(n);
  if (n <= kSmallAbsorb) {
    uint64_t fp[kSmallAbsorb];
    for (size_t i : order) {
      fp[i] = RowFingerprint(sets.row(i), stride);
      bool duplicate = false;
      for (size_t j : distinct) {
        if (fp[j] == fp[i] && RowEquals(sets.row(j), sets.row(i), stride)) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) {
        distinct.push_back(i);
      }
    }
    return distinct;
  }
  // Open-addressing table (load <= 1/2, linear probing) indexed by the
  // fingerprint's high bits: RowFingerprint's low bits depend only on the
  // low bits of the row, so rows that differ only in high bits would pile
  // into one run of low-bit slots.
  struct Slot {
    uint64_t fp;
    size_t row;  // SIZE_MAX = empty
  };
  unsigned shift = 63;
  while ((size_t{1} << (64 - shift)) < 2 * n) {
    --shift;
  }
  const size_t mask = (size_t{1} << (64 - shift)) - 1;
  std::vector<Slot> table(mask + 1, Slot{0, SIZE_MAX});
  for (size_t i : order) {
    const uint64_t* row = sets.row(i);
    const uint64_t fp = RowFingerprint(row, stride);
    size_t s = static_cast<size_t>(fp >> shift);
    bool duplicate = false;
    for (; table[s].row != SIZE_MAX; s = (s + 1) & mask) {
      if (table[s].fp == fp && RowEquals(sets.row(table[s].row), row, stride)) {
        duplicate = true;
        break;
      }
    }
    if (!duplicate) {
      table[s] = Slot{fp, i};
      distinct.push_back(i);
    }
  }
  return distinct;
}

}  // namespace

CutSetArena AbsorbMinimal(const CutSetArena& sets, LazyPool* pool) {
  const size_t n = sets.size();
  const size_t stride = sets.stride();
  CutSetArena out(stride);
  if (n == 0) {
    return out;
  }
  std::vector<uint32_t> pc(n);
  for (size_t i = 0; i < n; ++i) {
    pc[i] = static_cast<uint32_t>(RowPopcount(sets.row(i), stride));
  }
  const std::vector<size_t> candidates = DistinctByPopcount(sets, pc);
  const size_t m = candidates.size();

  // Key-bit index over the survivors. Each candidate gets one key bit it
  // contains — its rarest bit in the batch — and once it survives, its row
  // is copied into that bit's contiguous bucket. A survivor S can only be a
  // subset of candidate C if C contains S's key bit, so C scans just the
  // buckets of its own set bits, and every survivor is in exactly one bucket.
  // Small batches use a single bucket (key 0) holding every survivor, and so
  // does a batch with the empty row, which is a subset of every other row.
  const bool indexed = m > kSmallAbsorb && pc[candidates[0]] != 0;
  const size_t num_keys = indexed ? stride * 64 : 1;
  std::vector<uint32_t> key(m, 0);
  std::vector<size_t> bucket_begin(num_keys + 1, 0);
  if (indexed) {
    std::vector<uint32_t> freq(num_keys, 0);
    for (size_t i : candidates) {
      ForEachBit(sets.row(i), stride, [&](size_t bit) { ++freq[bit]; });
    }
    for (size_t c = 0; c < m; ++c) {
      // (frequency, bit) packed in one word: the minimum is the rarest bit,
      // the lowest one on ties.
      uint64_t best = UINT64_MAX;
      ForEachBit(sets.row(candidates[c]), stride,
                 [&](size_t bit) { best = std::min(best, uint64_t{freq[bit]} << 32 | bit); });
      key[c] = static_cast<uint32_t>(best);
      ++bucket_begin[key[c] + 1];
    }
    for (size_t k = 1; k <= num_keys; ++k) {
      bucket_begin[k] += bucket_begin[k - 1];
    }
  } else {
    bucket_begin[1] = m;
  }
  std::vector<uint64_t> bucket_words(m * stride);
  std::vector<size_t> bucket_fill(num_keys, 0);
  auto scan_bucket = [&](size_t k, const uint64_t* row) {
    const uint64_t* rows = bucket_words.data() + bucket_begin[k] * stride;
    switch (stride) {
      case 1:
        return AnySubsetOf<1>(rows, bucket_fill[k], row, stride);
      case 2:
        return AnySubsetOf<2>(rows, bucket_fill[k], row, stride);
      default:
        return AnySubsetOf<0>(rows, bucket_fill[k], row, stride);
    }
  };
  auto has_subset = [&](const uint64_t* row) {
    if (!indexed) {
      return scan_bucket(0, row);
    }
    for (size_t w = 0; w < stride; ++w) {
      for (uint64_t word = row[w]; word != 0; word &= word - 1) {
        if (scan_bucket(w * 64 + static_cast<size_t>(__builtin_ctzll(word)), row)) {
          return true;
        }
      }
    }
    return false;
  };

  // Level by level, popcount ascending: a row can only be absorbed by a
  // strictly smaller one, so the buckets stay frozen while a level is tested
  // (safe to shard) and the level's survivors are filed afterwards.
  std::vector<uint8_t> absorbed(m, 0);
  std::vector<size_t> kept;
  kept.reserve(m);
  size_t level_begin = 0;
  while (level_begin < m) {
    const uint32_t level_pc = pc[candidates[level_begin]];
    size_t level_end = level_begin;
    while (level_end < m && pc[candidates[level_end]] == level_pc) {
      ++level_end;
    }
    const size_t level_size = level_end - level_begin;
    auto test_range = [&](size_t begin, size_t end) {
      for (size_t c = level_begin + begin; c < level_begin + end; ++c) {
        absorbed[c] = has_subset(sets.row(candidates[c])) ? 1 : 0;
      }
    };
    ThreadPool* threads = nullptr;
    size_t work = 0;
    // The exact indexed work is counted only when the unindexed bound
    // (every candidate against every survivor) could reach the gate.
    if (pool != nullptr && pool->threads() > 1 &&
        level_size * kept.size() * stride >= kParallelAbsorbWork) {
      for (size_t c = level_begin; c < level_end; ++c) {
        if (!indexed) {
          work += bucket_fill[0];
        } else {
          ForEachBit(sets.row(candidates[c]), stride,
                     [&](size_t bit) { work += bucket_fill[bit]; });
        }
      }
      work *= stride;
      if (work >= kParallelAbsorbWork) {
        threads = pool->Get();
      }
    }
    if (threads != nullptr) {
      const size_t grain = std::max<size_t>(1, level_size * kAbsorbShardWork / work);
      threads->ParallelForChunked(level_size, grain, test_range);
    } else if (!kept.empty()) {
      test_range(0, level_size);
    }
    for (size_t c = level_begin; c < level_end; ++c) {
      if (absorbed[c]) {
        continue;
      }
      kept.push_back(candidates[c]);
      const size_t k = key[c];
      std::memcpy(bucket_words.data() + (bucket_begin[k] + bucket_fill[k]) * stride,
                  sets.row(candidates[c]), stride * sizeof(uint64_t));
      ++bucket_fill[k];
    }
    level_begin = level_end;
  }

  out.Reserve(kept.size());
  for (size_t i : kept) {
    out.AppendCopy(sets.row(i));
  }
  // Batch counter updates: two relaxed adds per absorption sweep, not per row.
  static obs::Counter* deduped = obs::MetricsRegistry::Global().GetCounter("sia.cutsets.deduped");
  static obs::Counter* absorbed_count =
      obs::MetricsRegistry::Global().GetCounter("sia.cutsets.absorbed");
  deduped->Add(n - m);
  absorbed_count->Add(m - kept.size());
  return out;
}

}  // namespace indaas
