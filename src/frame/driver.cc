#include "frame/driver.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/assert.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace eqc::frame {

namespace {

/// Trials folded into a result counter.  Stable: a completed run folds the
/// same total regardless of jobs, batch grouping or resume pattern.
obs::Counter& trials_counter() {
  static obs::Counter& c = obs::counter("frames.trials", obs::Det::Stable);
  return c;
}
/// Batches executed.  Runtime: batch geometry depends on block boundaries
/// and resume points (a resumed run re-tiles the remaining index range).
obs::Counter& batches_counter() {
  static obs::Counter& c = obs::counter("frames.batches", obs::Det::Runtime);
  return c;
}
/// Oracle words evaluated (== batches; kept separate so a future oracle
/// cache shows up as words < batches).  Runtime for the same reason.
obs::Counter& words_counter() {
  static obs::Counter& c = obs::counter("frames.words", obs::Det::Runtime);
  return c;
}

/// Runs the batch tiling [first, first + count) and returns the packed
/// failure words in tile order (tile t covers trial indices
/// first + 64 t .. — the fixed tiling that makes resume points and worker
/// counts irrelevant to the fold).
std::vector<std::uint64_t> run_block(const FrameProgram& prog,
                                     const noise::NoiseModel& model,
                                     std::uint64_t seed, std::uint64_t first,
                                     std::uint64_t count,
                                     const BatchOracle& failed,
                                     unsigned workers) {
  const std::uint64_t tiles = (count + FrameBatch::kLanes - 1) /
                              FrameBatch::kLanes;
  std::vector<std::uint64_t> words(static_cast<std::size_t>(tiles), 0);
  batches_counter().add(tiles);
  words_counter().add(tiles);
  // One FrameBatch per worker, reused across the tiles it claims —
  // reset_state() keeps vector capacity, so steady-state tiles allocate
  // nothing.  Workers claim the next tile from a shared counter, so a slow
  // worker holds up no fixed share of the block.  words[t] still depends
  // only on t, so the fold stays byte-identical for any worker count.
  const unsigned shards = static_cast<unsigned>(
      std::min<std::uint64_t>(tiles, std::uint64_t{workers}));
  std::atomic<std::uint64_t> next_tile{0};
  parallel::for_each_shard(shards, workers, [&](unsigned) {
    FrameBatch batch(prog);
    for (std::uint64_t t = next_tile++; t < tiles; t = next_tile++) {
      const std::uint64_t start = first + t * FrameBatch::kLanes;
      const unsigned lanes = static_cast<unsigned>(
          std::min<std::uint64_t>(FrameBatch::kLanes, first + count - start));
      batch.run_stochastic(model, seed, start, lanes);
      words[static_cast<std::size_t>(t)] = failed(batch) & batch.active_mask();
    }
  });
  return words;
}

void fold_words(FailureCounter& counter, const std::vector<std::uint64_t>& ws,
                std::uint64_t count) {
  std::uint64_t i = 0;
  for (std::uint64_t w : ws)
    for (unsigned l = 0; l < FrameBatch::kLanes && i < count; ++l, ++i)
      counter.add(((w >> l) & 1) != 0);
}

}  // namespace

FailureCounter run_trials(const FrameProgram& prog,
                          const noise::NoiseModel& model, std::uint64_t trials,
                          std::uint64_t seed, const BatchOracle& failed,
                          unsigned jobs) {
  EQC_EXPECTS(failed != nullptr);
  const unsigned workers = parallel::resolve_jobs(jobs);
  obs::Span span("frames.run_trials");
  span.arg("trials", trials);
  trials_counter().add(trials);

  FailureCounter counter;
  if (trials == 0) return counter;
  const auto words = run_block(prog, model, seed, 0, trials, failed, workers);
  fold_words(counter, words, trials);
  return counter;
}

noise::McRunResult run_trials_resumable(const FrameProgram& prog,
                                        const noise::NoiseModel& model,
                                        std::uint64_t trials,
                                        std::uint64_t seed,
                                        const BatchOracle& failed,
                                        const noise::McResumableOptions& opt) {
  EQC_EXPECTS(failed != nullptr);
  EQC_EXPECTS(opt.start_index <= trials);
  const unsigned workers = parallel::resolve_jobs(opt.jobs);
  // A frame batch is 64x coarser than a per-trial evaluation, so the auto
  // block scales the per-trial driver's choice by the lane width.
  const std::uint64_t block =
      opt.block != 0 ? opt.block
                     : std::max<std::uint64_t>(
                           std::uint64_t{workers} * 8 * FrameBatch::kLanes,
                           64);

  noise::McRunResult res;
  res.counter = opt.initial;
  std::uint64_t next = opt.start_index;
  while (next < trials) {
    if (opt.stop != nullptr && opt.stop->load(std::memory_order_relaxed)) {
      res.next_index = next;
      res.complete = false;
      return res;
    }
    const std::uint64_t count = std::min(block, trials - next);
    obs::Span span("frames.block");
    span.arg("start", next).arg("count", count);
    trials_counter().add(count);
    const auto words =
        run_block(prog, model, seed, next, count, failed, workers);
    fold_words(res.counter, words, count);
    next += count;
    if (opt.on_block) opt.on_block(noise::McProgress{next, res.counter});
  }
  res.next_index = next;
  res.complete = true;
  return res;
}

}  // namespace eqc::frame
