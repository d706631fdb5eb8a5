// Scoped spans serializing to Chrome trace-event JSON.
//
// A Span is an RAII timer: construction stamps a start time, destruction
// records one complete ("ph":"X") event into the process trace sink with
// the current thread's slot as "tid".  The resulting file loads directly
// in Perfetto / chrome://tracing:
//
//   { "displayTimeUnit": "ms",
//     "traceEvents": [
//       {"name":"thread_name","ph":"M","pid":1,"tid":0,
//        "args":{"name":"worker-0"}},
//       {"name":"frames.run_trials","cat":"eqc","ph":"X","pid":1,"tid":0,
//        "ts":12.3,"dur":456.7,"args":{"start":0,"count":256}}, ... ] }
//
// ("ts"/"dur" are microseconds since sink installation, per the format.)
//
// DISABLED-PATH COST.  When no sink is installed (the default), the Span
// constructor is a single relaxed atomic load and a pointer store — no
// clock read, no allocation, no lock.  Numeric args attach through
// Span::arg(), which is a no-op when disabled, so hot loops never build
// strings for a trace that is not being taken.  Spans are coarse
// (per worker-drain, per MC block, per matrix cell, per shrink loop);
// the sink is a mutex-guarded buffer, flushed once by write_trace_file.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace eqc::obs {

/// True when a trace sink is installed (one relaxed atomic load).
bool trace_active();

/// Installs the process-wide trace sink: subsequent spans are collected
/// (timestamps relative to this call) and timing capture is enabled.
/// Idempotent.
void install_trace_sink();

/// Drops the sink and every collected event, and re-disables timing.
/// Used by tests to restore the disabled state.
void shutdown_trace_sink();

/// Labels the calling thread in the trace ("thread_name" metadata event),
/// e.g. "worker-3".  No-op when no sink is installed.
void set_thread_label(const std::string& label);

/// Serializes the collected events as a Chrome trace-event JSON document
/// (events are kept, so this can be called repeatedly).
std::string trace_json();

/// Writes trace_json() to `path`; false on an I/O error.
bool write_trace_file(const std::string& path);

class Span {
 public:
  /// `name` must outlive the span (string literals at every call site).
  explicit Span(const char* name);
  /// Coarse spans may attach a string detail (e.g. the matrix cell name);
  /// it is stored only when the sink is active.
  Span(const char* name, const std::string& detail);
  ~Span();

  /// Attaches a numeric argument (up to 4; extras are dropped).  `key`
  /// must outlive the span.  No-op when the sink is inactive.
  Span& arg(const char* key, std::uint64_t value);

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_ = nullptr;  // nullptr => sink inactive at construction
  std::string detail_;
  const char* arg_keys_[4] = {nullptr, nullptr, nullptr, nullptr};
  std::uint64_t arg_vals_[4] = {0, 0, 0, 0};
  int num_args_ = 0;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace eqc::obs
