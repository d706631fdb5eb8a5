// Deterministic index-ordered sweep over a worker pool.
//
// Every counting engine — the per-trial and 64-lane Monte-Carlo drivers,
// the k-fault campaign and the differential fuzzer — follows one
// discipline, implemented once here by `sweep`:
//
//  * items are uint64 indices in [first, last); per-item randomness is
//    counter-split off a stated seed (common/rng.h: derive_stream_seed),
//    never drawn from a sequentially advanced master, so every item's
//    outcome is a pure function of its index;
//  * workers claim the next index from one atomic cursor and evaluate
//    items concurrently;
//  * completed outcomes are FOLDED strictly in index order, under one
//    lock, as soon as the completed prefix grows — there is no barrier
//    between blocks of items;
//  * the sweep ends when a stop token is set or when an evaluation
//    abandons its index; outcomes evaluated past that point are discarded
//    and re-evaluate identically on resume.
//
// The folded result is therefore BYTE-IDENTICAL for any `jobs` value and
// any stop/resume pattern; threads only change the wall clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

namespace eqc::parallel {

/// Largest worker count accepted from outside the program (CLI flags,
/// job specs): anything above it is an input error, not a pool to start.
inline constexpr unsigned kMaxJobs = 1024;

/// Resolves a worker-count request: 0 means "one per hardware thread"
/// (at least 1); any other value is returned unchanged.
unsigned resolve_jobs(unsigned jobs);

/// Parses a count given from outside the program: all of `text` is
/// decimal digits of a value within 64 bits, else nullopt.
std::optional<std::uint64_t> parse_u64(std::string_view text);

/// Parses a real value given from outside the program: all of `text` is
/// one finite std::from_chars number ("1e-3", no "+" or spaces), else
/// nullopt.
std::optional<double> parse_double(std::string_view text);

/// Parses a worker count given from outside the program: parse_u64 with
/// value in [0, kMaxJobs] (0 = one per hardware thread), else nullopt.
std::optional<unsigned> parse_jobs(std::string_view text);

/// Invokes `body(shard)` once for every shard in [0, shards), spread
/// over up to `jobs` worker threads (`jobs` is resolved first; a resolved
/// count of 1 runs inline on the calling thread, spawning nothing).
/// Shards are claimed atomically in index order; each is processed by
/// exactly one worker.  `body` must be safe to invoke concurrently on
/// distinct shards.  The first exception thrown by any shard is rethrown
/// on the calling thread after all workers join.  The building block of
/// `sweep`; engines use `sweep`.
void for_each_shard(unsigned shards, unsigned jobs,
                    const std::function<void(unsigned)>& body);

/// Worker threads a sweep over `items` indices starts for `jobs`
/// (resolved, at most one per item, at least 1).  Worker indices handed
/// to `eval` are below this.
unsigned sweep_workers(unsigned jobs, std::uint64_t items);

struct SweepOptions {
  /// Worker threads (0 = one per hardware thread).
  unsigned jobs = 1;
  /// Cooperative cancellation: polled before every claim and every fold.
  /// Once set, nothing more is folded.
  const std::atomic<bool>* stop = nullptr;
  /// Runs from the fold, under its lock, after every folded item with the
  /// first unfolded index — the checkpoint hook.  Setting `stop` from here
  /// ends the sweep exactly at that index.
  std::function<void(std::uint64_t next)> progress;
};

/// Evaluates items [first, last) and folds their outcomes in index order.
///
///  * `eval(worker, i)` returns std::optional<Outcome>; nullopt ABANDONS
///    index i (e.g. a time budget ran out): items below i still fold,
///    nothing at or past i does.  Called concurrently, never twice at once
///    with the same `worker` (< sweep_workers(jobs, last - first)), so a
///    caller may keep per-worker scratch.
///  * `fold(i, outcome)` runs under the sweep's lock in strictly
///    increasing i, once per folded item.
///
/// Returns the first unfolded index (== last when every item folded).
/// The first exception thrown by `eval`, `fold` or `progress` stops all
/// workers and is rethrown on the calling thread.
template <class Eval, class Fold>
std::uint64_t sweep(std::uint64_t first, std::uint64_t last,
                    const SweepOptions& opt, Eval&& eval, Fold&& fold) {
  using Outcome = typename std::invoke_result_t<Eval&, unsigned,
                                                std::uint64_t>::value_type;
  if (first >= last) return first;
  auto stopped = [&opt] {
    return opt.stop != nullptr && opt.stop->load(std::memory_order_relaxed);
  };

  std::atomic<std::uint64_t> cursor{first};
  std::atomic<std::uint64_t> end{last};  // nothing at or past `end` folds
  std::mutex mu;
  std::uint64_t next = first;               // guarded by mu
  std::deque<std::optional<Outcome>> done;  // done[j] is item next + j

  const unsigned workers = sweep_workers(opt.jobs, last - first);
  for_each_shard(workers, workers, [&](unsigned worker) {
    try {
      while (!stopped()) {
        const std::uint64_t i = cursor.fetch_add(1);
        if (i >= end.load()) return;
        std::optional<Outcome> out = eval(worker, i);
        std::lock_guard<std::mutex> lock(mu);
        if (i >= end.load()) return;
        if (!out) {
          end.store(i);
          return;
        }
        if (done.size() <= i - next) done.resize(i - next + 1);
        done[i - next] = std::move(out);
        while (next < end.load() && !done.empty() && done.front()) {
          if (stopped()) {
            end.store(next);
            break;
          }
          fold(next, *done.front());
          done.pop_front();
          ++next;
          if (opt.progress) opt.progress(next);
        }
      }
    } catch (...) {
      end.store(first);
      throw;
    }
  });
  return next;
}

}  // namespace eqc::parallel
