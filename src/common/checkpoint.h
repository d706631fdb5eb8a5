// Crash-safe persistence shared by every resumable engine
// (analysis/campaign, testing/fuzz, the serve scheduler and its jobs).
//
// There is one durable-append implementation, the Journal: an append-only
// JSONL file, one JSON object per line, each stamped with a strictly
// sequential "seq" member.  Two logs are built on it:
//
//  * the serve scheduler's write-ahead job journal (serve/scheduler.h);
//  * every engine's ProgressLog: one record per checkpoint flush carrying
//    the engine's next index, its counters and ONLY the items folded since
//    the previous flush; the first record also carries the header {kind,
//    schema_version, fingerprint}.  A resume replays the records in order.
//
// Crash model: a record is written with a single fwrite of "<json>\n"
// followed by fflush, so a crash leaves at most one torn trailing line (a
// prefix of the last record, never containing '\n').  The loader drops
// exactly that and the next append first cuts it off.  Every other kind
// of damage — an unparseable or non-object terminated line, a missing or
// out-of-order "seq", a tail that cannot be the start of a record (a
// whole-document checkpoint from an older build), a header of another
// kind or schema version, a flush record the engine cannot fold — is not
// producible by the crash model and raises CheckpointCorrupt.  A
// well-formed log whose fingerprint names a DIFFERENT run raises
// ContractViolation: operator error, not damage.
//
// write_file_atomically (temp file + rename) remains for final reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/metrics.h"

namespace eqc {

/// Thrown when a checkpoint (or journal) file cannot be interpreted:
/// interior damage, a foreign header kind, or a schema_version the loader
/// does not implement.  Distinct from ContractViolation (fingerprint
/// mismatch / API misuse) so callers can fall back to a fresh start on
/// corruption while still failing loudly on operator error.
class CheckpointCorrupt : public std::runtime_error {
 public:
  explicit CheckpointCorrupt(const std::string& what)
      : std::runtime_error(what) {}
};

/// Writes `content` to `path` via a same-directory temp file + rename, so
/// readers (and a post-crash restart) see either the old bytes or the new
/// bytes, never a prefix.  Flushes user-space buffers before the rename.
void write_file_atomically(const std::string& path, const std::string& content);

/// Reads a whole file; false when it cannot be opened.
bool read_file(const std::string& path, std::string& content);

/// Moves a damaged checkpoint aside to "<path>.corrupt" (best effort) so a
/// fresh start does not silently overwrite the evidence.  Returns the
/// quarantine path, or an empty string when nothing was moved.
std::string quarantine_corrupt_file(const std::string& path);

/// What a journal load actually recovered — surfaced so callers can log a
/// one-line recovery summary instead of silently dropping evidence.
struct JournalLoadStats {
  std::uint64_t records = 0;     ///< committed records replayed
  std::uint64_t torn_bytes = 0;  ///< bytes of the torn unterminated tail
};

/// Parses journal text into records.  Tolerates a torn unterminated tail
/// (reported via `stats` when non-null); throws CheckpointCorrupt on any
/// interior damage.
std::vector<json::Value> parse_journal_text(const std::string& text,
                                            JournalLoadStats* stats = nullptr);

class Journal {
 public:
  /// Loads the records of an existing journal file (absent file = empty).
  static std::vector<json::Value> load(const std::string& path,
                                       JournalLoadStats* stats = nullptr);

  /// Opens `path` for appending after its first `next_seq` committed
  /// records, cutting off everything behind them (a torn tail, or the
  /// whole file when `next_seq` is 0) so the next record starts a line of
  /// its own.  Appends feed the obs counter "<metric>s" and the latency
  /// histogram "<metric>_ms".  Throws ContractViolation when the file
  /// cannot be opened or holds fewer than `next_seq` records.
  Journal(const std::string& path, std::uint64_t next_seq,
          const std::string& metric);
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Stamps `record` with the next "seq" (prepended, so journal lines all
  /// lead with their sequence number), appends one line and flushes.
  void append(json::Value record);

 private:
  std::FILE* file_ = nullptr;
  std::uint64_t next_seq_ = 0;
  obs::Counter& appends_;
  obs::Histogram& append_ms_;
};

/// One engine's checkpoint: a Journal of flush records, the first of which
/// also carries the header {kind, schema_version, fingerprint}.  Every
/// flush is one append and feeds the obs metrics "checkpoint.writes" and
/// "checkpoint.write_ms".
class ProgressLog {
 public:
  /// `path` empty disables the log: resume() finds nothing and append()
  /// does nothing.
  ProgressLog(std::string path, std::string kind, std::uint64_t schema_version,
              json::Value fingerprint);

  /// Replays an existing log, calling `apply` once per flush record in
  /// order (the first one with the header members); `apply` throws
  /// CheckpointCorrupt (or json::JsonError / ContractViolation, converted
  /// to it) on a record it cannot fold.
  /// Returns false when there is nothing to resume — no file, no
  /// committed record, or, with `fresh_on_corrupt`, a damaged log that was
  /// quarantined — and the caller must then discard whatever `apply`
  /// folded.  Throws CheckpointCorrupt on damage otherwise, and
  /// ContractViolation on a foreign fingerprint (the file is untouched).
  bool resume(const std::function<void(const json::Value&)>& apply,
              bool fresh_on_corrupt);

  /// Appends one flush record taken at `position`, the engine's next
  /// unfolded index.  A flush at the position of the previous append
  /// carries nothing new and is skipped.  The first append of a log that
  /// was not resumed starts the file afresh, header members first.
  void append(std::uint64_t position, json::Value flush);

 private:
  std::string path_;
  std::string kind_;
  std::uint64_t schema_version_;
  json::Value fingerprint_;
  std::optional<Journal> journal_;
  std::optional<std::uint64_t> position_;  ///< of the last append
};

/// Checkpoint cadence: a write is due every `every_items` completed items
/// OR — when `min_interval_sec > 0` — whenever that much wall time elapsed
/// since the last write, whichever comes first.  The time leg bounds the
/// work a crash can lose even when individual items are slow (a shard that
/// takes seconds per item would otherwise stretch an item-count cadence
/// into minutes of unjournaled progress).
class CheckpointCadence {
 public:
  using Clock = std::chrono::steady_clock;

  CheckpointCadence(std::uint64_t every_items, double min_interval_sec,
                    Clock::time_point now = Clock::now())
      : every_items_(every_items == 0 ? 1 : every_items),
        min_interval_sec_(min_interval_sec),
        last_write_(now) {}

  /// Records one completed item; true when a checkpoint is now due.
  bool item_done(Clock::time_point now = Clock::now()) {
    ++items_since_write_;
    if (items_since_write_ >= every_items_) return true;
    if (min_interval_sec_ > 0.0) {
      const std::chrono::duration<double> dt = now - last_write_;
      if (dt.count() >= min_interval_sec_) return true;
    }
    return false;
  }

  /// Resets both legs after a checkpoint write.
  void wrote(Clock::time_point now = Clock::now()) {
    items_since_write_ = 0;
    last_write_ = now;
  }

 private:
  std::uint64_t every_items_;
  double min_interval_sec_;
  std::uint64_t items_since_write_ = 0;
  Clock::time_point last_write_;
};

}  // namespace eqc
