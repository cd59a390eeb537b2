// In-process sampling profiler (DESIGN.md §11).
//
// The fourth pillar of the obs stack (metrics, traces, logs — and now
// profiles): answers "which frames burned the CPU during that p99 audit"
// without detaching a debugger from a serving process. Two collectors share
// one machinery:
//
//   CPU samples    — per-thread POSIX timers on the thread's CPU clock
//                    (timer_create + SIGEV_THREAD_ID) deliver SIGPROF at the
//                    configured frequency; the handler unwinds the
//                    interrupted stack by frame pointers (the build compiles
//                    with -fno-omit-frame-pointer) and appends one fixed-size
//                    sample to the thread's lock-free ring.
//   Alloc samples  — the global operator new/delete replacements (defined in
//                    profiler.cc, always compiled, ~2 relaxed loads when
//                    idle) count bytes per thread and capture one stack every
//                    `alloc_interval_bytes`, weighting it by the bytes it
//                    stands for, so heap churn is attributed to the same
//                    frames as CPU time.
//
// Signal-safety rules (everything the SIGPROF handler touches):
//   - no malloc, no stdio, no locks, no C++ exceptions;
//   - per-thread state reached through one thread_local pointer that the
//     thread itself published at registration (local-exec TLS, no lazy init
//     in signal context);
//   - samples land in per-thread obs::SeqlockRings, the ring type the
//     flight recorder uses too (src/obs/seqlock_ring.h states its ordering
//     argument): word stores plus one head publish, and the drainer drops
//     (and counts) slots the writer lapped mid-copy;
//   - frame-pointer walks validate every dereference against the thread's
//     stack bounds captured at registration, so a corrupt or foreign frame
//     chain terminates the walk instead of faulting.
//
// Threads are sampled only after calling Profiler::RegisterCurrentThread()
// (server pool workers, reactor loops, and `indaas serve`'s main thread all
// do); unregistered threads cost nothing and are simply invisible, which
// keeps every signal-context invariant local to code that opted in.
//
// A drainer thread moves ring contents into the session buffer every few
// milliseconds and folds drop/truncation counts into the metrics registry
// (obs.profile.samples / dropped / truncated_stacks) — never from signal
// context. One session runs at a time: Start/Stop for explicit windows
// (the GetProfile RPC), or a continuous background session
// (`indaas serve --profile-hz`) from which WindowedCapture() cuts
// time-bounded slices for remote callers.

#ifndef SRC_OBS_PROFILER_H_
#define SRC_OBS_PROFILER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/seqlock_ring.h"
#include "src/util/status.h"

namespace indaas {
namespace obs {

// One decoded stack sample. `frames` is leaf-first (frames[0] is the
// interrupted PC / the allocation site's caller chain head).
struct ProfileSample {
  uint64_t t_us = 0;       // trace-epoch microseconds (obs::TraceNowMicros)
  uint64_t trace_id = 0;   // ambient distributed trace id, 0 = none
  uint64_t weight = 0;     // CPU: 1; alloc: bytes this sample stands for
  uint32_t tid = 0;        // obs::TraceThreadId of the sampled thread
  bool truncated = false;  // stack was deeper than kMaxFrames
  bool alloc = false;      // allocation sample (weight = bytes)
  std::vector<uintptr_t> frames;
};

// Everything one profile window produced. `exe_base` is the executable's
// runtime relocation base (PIE): symbolizers feed `pc - exe_base` to
// addr2line. `trace_ids` lists the distinct distributed trace ids whose
// requests were caught in the window (bounded, see kMaxWindowTraceIds) —
// the hook `indaas trace-merge` uses to align a flamegraph with the RPC
// timeline that produced it.
struct ProfileData {
  uint32_t hz = 0;
  uint64_t start_us = 0;  // trace-epoch micros, same timebase as spans
  uint64_t end_us = 0;
  uintptr_t exe_base = 0;
  std::string exe_path;
  uint64_t dropped = 0;           // samples lost to ring overwrite/buffer cap
  uint64_t truncated_stacks = 0;  // samples whose walk hit kMaxFrames
  std::vector<uint64_t> trace_ids;
  std::vector<ProfileSample> samples;  // CPU and alloc, interleaved by time
};

struct ProfileOptions {
  uint32_t hz = 99;                  // CPU sampling frequency, [1, kMaxHz]
  bool alloc = true;                 // sample allocations too
  uint64_t alloc_interval_bytes = 512 * 1024;  // one stack per N bytes
  // Continuous (server-lifetime) session: the buffer keeps a sliding window
  // of the last kMaxWindowSeconds instead of accumulating until the session
  // cap — aged-out samples are evicted (not counted as dropped) so an
  // always-on session neither saturates nor pins unbounded memory.
  bool continuous = false;
};

class Profiler {
 public:
  // Deepest stack a sample retains; deeper walks set `truncated`.
  static constexpr size_t kMaxFrames = 48;
  // Samples buffered per thread ring between drainer sweeps. The drainer
  // runs every ~20 ms, so even 1 kHz sampling fills <5% of a ring per sweep.
  static constexpr size_t kRingCapacity = 512;
  // Upper bound on concurrently-registered threads (an obs::ThreadRegistry:
  // a fixed array walkable without locks; states of exited threads are
  // parked and re-used).
  static constexpr size_t kMaxThreads = 128;
  // Hard cap on the sampling frequency a session (or RPC) may request.
  static constexpr uint32_t kMaxHz = 1000;
  // Longest window WindowedCapture() serves; also the retention horizon of
  // a continuous session's sliding buffer (plus slack for drainer latency).
  static constexpr uint32_t kMaxWindowSeconds = 60;
  // Session buffer cap. Explicit sessions drop further samples once full;
  // continuous sessions evict the oldest instead, so the newest
  // kMaxWindowSeconds always stay servable. At 99 Hz × 16 threads this is
  // ~10 minutes of profile.
  static constexpr size_t kMaxSessionSamples = 1 << 20;
  // Distinct trace ids remembered per window.
  static constexpr size_t kMaxWindowTraceIds = 64;

  static Profiler& Global();

  // Enrolls the calling thread for sampling: acquires its rings, captures
  // its stack bounds, and — when a session is running — arms its CPU timer.
  // Idempotent; cheap after the first call. Threads that never call this
  // are never signalled.
  void RegisterCurrentThread();

  // Starts a profiling session. Fails with kUnavailable when one is already
  // running and kInvalidArgument for out-of-range options.
  Status Start(const ProfileOptions& options);

  // Stops the session and returns everything it captured. Returns empty
  // data when no session was running.
  ProfileData Stop();

  // Blocks for `seconds`, then returns that window's samples. When a
  // session is already running (continuous mode), the window is cut from
  // it without disturbing it; otherwise a temporary session is started and
  // stopped around the window. Fails when `seconds` or `hz` is out of
  // range, or a temporary session loses the start race.
  Result<ProfileData> WindowedCapture(uint32_t hz, uint32_t seconds, bool alloc);

  bool running() const { return running_.load(std::memory_order_acquire); }

  // --- internal (signal handler / allocation hook) ---
  struct ThreadState;
  struct Ring;
  // Called by the global operator new replacement on every allocation.
  static void OnAlloc(size_t size);

 private:
  Profiler();

  void ArmTimerLocked(ThreadState* state);
  void DisarmTimerLocked(ThreadState* state);
  void DrainLoop();
  // Moves every ring's unread samples into buffer_; returns samples moved.
  // Continuous sessions also evict buffered samples older than the
  // retention horizon here (eviction is not a drop).
  size_t DrainOnce();
  void AppendLocked(const ProfileSample& sample);

  std::atomic<bool> running_{false};
  std::atomic<bool> alloc_sampling_{false};

  std::mutex mu_;  // guards everything below (never taken in signal context)
  bool stopping_ = false;  // Stop() tear-down in progress; Start() must wait
  ProfileOptions options_;
  uint64_t session_start_us_ = 0;
  std::deque<ProfileSample> buffer_;  // deque: continuous mode evicts at the front
  std::vector<uint64_t> buffer_trace_ids_;
  uint64_t dropped_ = 0;
  uint64_t truncated_ = 0;
  std::thread drainer_;
  std::atomic<bool> drainer_stop_{false};

  using ThreadStates = ThreadRegistry<ThreadState, kMaxThreads>;
  ThreadStates threads_;
};

// The executable's runtime relocation base and path (for PIE-aware offline
// symbolization). Cheap after the first call.
uintptr_t ExecutableLoadBase();
const std::string& ExecutablePath();

// --- Dump format ------------------------------------------------------------
//
// Self-describing line-oriented text (the GetProfile RPC payload and the
// input to tools/symbolize_profile.py):
//
//   # indaas-profile v1
//   # exe /path/to/binary
//   # base 0x55f2c3a00000
//   # hz 99
//   # window_us <start> <end>
//   # counts samples <n> dropped <n> truncated <n>
//   # trace_ids <hex> <hex> ...
//   cpu <t_us> <trace_id> <tid> <weight> <pc-hex> <pc-hex> ...
//   alloc <t_us> <trace_id> <tid> <bytes> <pc-hex> <pc-hex> ...
//
// PCs are leaf-first runtime addresses; subtract `base` before addr2line.

std::string ProfileToDumpText(const ProfileData& data);

// Parses ProfileToDumpText output. Unparseable lines are skipped; header
// fields missing from `text` leave the corresponding fields zero. Returns
// false when `text` lacks the v1 header line.
bool ParseProfileDumpText(const std::string& text, ProfileData* out);

}  // namespace obs
}  // namespace indaas

#endif  // SRC_OBS_PROFILER_H_
