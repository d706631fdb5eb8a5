#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace eqc::parallel {

unsigned resolve_jobs(unsigned jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value))
    return std::nullopt;
  return value;
}

std::optional<unsigned> parse_jobs(std::string_view text) {
  const auto value = parse_u64(text);
  if (!value || *value > kMaxJobs) return std::nullopt;
  return static_cast<unsigned>(*value);
}

unsigned sweep_workers(unsigned jobs, std::uint64_t items) {
  return static_cast<unsigned>(std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(resolve_jobs(jobs), items)));
}

void for_each_shard(unsigned shards, unsigned jobs,
                    const std::function<void(unsigned)>& body) {
  if (shards == 0) return;
  const unsigned workers = std::min(resolve_jobs(jobs), shards);

  // Pool shape and busy/idle split depend on the worker count and the
  // machine, so everything here is Det::Runtime.
  static obs::Counter& c_pools =
      obs::counter("parallel.pools", obs::Det::Runtime);
  static obs::Counter& c_shards =
      obs::counter("parallel.shards_claimed", obs::Det::Runtime);
  c_pools.add(1);

  std::atomic<unsigned> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto drain = [&] {
    // One span per worker drain (not per shard), so a pool that ran many
    // shards stays one event per worker.
    obs::Span span("parallel.drain");
    const bool timed = obs::timing_enabled();
    const auto drain_start =
        timed ? std::chrono::steady_clock::now()
              : std::chrono::steady_clock::time_point{};
    std::uint64_t claimed = 0;
    double busy_us = 0.0;
    for (;;) {
      if (failed.load(std::memory_order_relaxed)) break;
      const unsigned shard = next.fetch_add(1);
      if (shard >= shards) break;
      ++claimed;
      const auto t0 = timed ? std::chrono::steady_clock::now()
                            : std::chrono::steady_clock::time_point{};
      try {
        body(shard);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      if (timed)
        busy_us += std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    }
    c_shards.add(claimed);
    if (timed) {
      // Registered on first timed use only: with timing off the snapshot
      // omits busy/idle rather than reading a silent zero.
      static obs::Counter& c_busy_us =
          obs::counter("parallel.busy_us", obs::Det::Runtime);
      static obs::Counter& c_idle_us =
          obs::counter("parallel.idle_us", obs::Det::Runtime);
      const double total_us = std::chrono::duration<double, std::micro>(
                                  std::chrono::steady_clock::now() -
                                  drain_start)
                                  .count();
      c_busy_us.add(static_cast<std::uint64_t>(busy_us));
      c_idle_us.add(static_cast<std::uint64_t>(
          total_us > busy_us ? total_us - busy_us : 0.0));
    }
    span.arg("shards", claimed);
  };

  if (workers == 1) {
    drain();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
      pool.emplace_back([&drain, w] {
        if (obs::trace_active())
          obs::set_thread_label("worker-" + std::to_string(w));
        drain();
      });
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace eqc::parallel
