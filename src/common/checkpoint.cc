#include "common/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/assert.h"

namespace eqc {

namespace {

/// Every journal line starts with this: append() puts "seq" first.
constexpr char kRecordStart[] = "{\"seq\":";

}  // namespace

void write_file_atomically(const std::string& path,
                           const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    EQC_CHECK(out.good());
    out << content;
    out.flush();
    EQC_CHECK(out.good());
  }
  EQC_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0);
}

bool read_file(const std::string& path, std::string& content) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  content = ss.str();
  return true;
}

std::string quarantine_corrupt_file(const std::string& path) {
  const std::string dest = path + ".corrupt";
  if (std::rename(path.c_str(), dest.c_str()) != 0) return std::string();
  return dest;
}

// --- journal ----------------------------------------------------------------

std::vector<json::Value> parse_journal_text(const std::string& text,
                                            JournalLoadStats* stats) {
  std::vector<json::Value> records;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      // Unterminated tail: the one artifact the crash model can produce,
      // provided it could be the start of a record.  Whatever the fragment
      // contains, the record it belonged to never committed — drop it.
      const std::string_view tail(text.data() + pos, text.size() - pos);
      const std::string_view start(kRecordStart);
      if (tail.substr(0, start.size()) != start.substr(0, tail.size()))
        throw CheckpointCorrupt(
            "journal: unterminated tail is not a record (a whole-document "
            "checkpoint from an older build?)");
      if (stats != nullptr) stats->torn_bytes = tail.size();
      break;
    }
    const std::string line = text.substr(pos, nl - pos);
    pos = nl + 1;
    if (line.empty())
      throw CheckpointCorrupt("journal: empty record line");
    json::Value rec;
    try {
      rec = json::Value::parse(line);
    } catch (const json::JsonError& e) {
      throw CheckpointCorrupt(std::string("journal: unparseable record: ") +
                              e.what());
    }
    if (!rec.is_object())
      throw CheckpointCorrupt("journal: record is not an object");
    const json::Value* seq = rec.find("seq");
    if (seq == nullptr || seq->dump() != std::to_string(records.size()))
      throw CheckpointCorrupt("journal: record out of sequence");
    records.push_back(std::move(rec));
  }
  if (stats != nullptr) stats->records = records.size();
  return records;
}

std::vector<json::Value> Journal::load(const std::string& path,
                                       JournalLoadStats* stats) {
  std::string text;
  if (!read_file(path, text)) return {};
  return parse_journal_text(text, stats);
}

Journal::Journal(const std::string& path, std::uint64_t next_seq,
                 const std::string& metric)
    : next_seq_(next_seq),
      appends_(obs::counter(metric + "s", obs::Det::Runtime)),
      append_ms_(obs::histogram(metric + "_ms",
                                {0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
                                 10, 25, 50, 100},
                                obs::Det::Runtime)) {
  // Keep the first next_seq lines; an append behind a torn fragment would
  // glue a committed record onto it and damage the log's interior.
  std::string text;
  if (read_file(path, text)) {
    std::size_t keep = 0;
    for (std::uint64_t i = 0; i < next_seq; ++i) {
      const std::size_t nl = text.find('\n', keep);
      EQC_CHECK(nl != std::string::npos);
      keep = nl + 1;
    }
    if (keep < text.size()) std::filesystem::resize_file(path, keep);
  } else {
    EQC_CHECK(next_seq == 0);
  }
  file_ = std::fopen(path.c_str(), "ab");
  EQC_CHECK(file_ != nullptr);
}

Journal::~Journal() {
  if (file_ != nullptr) std::fclose(file_);
}

void Journal::append(json::Value record) {
  EQC_EXPECTS(record.is_object());
  appends_.add(1);
  obs::LatencyTimer timer(append_ms_);

  json::Object stamped;
  stamped.emplace_back("seq", next_seq_);
  for (auto& member : record.as_object()) {
    if (member.first != "seq") stamped.push_back(std::move(member));
  }
  const std::string line = json::Value(std::move(stamped)).dump() + "\n";
  // One fwrite per record keeps the crash model honest: a torn write is a
  // prefix of this line and never spans records.
  EQC_CHECK(std::fwrite(line.data(), 1, line.size(), file_) == line.size());
  EQC_CHECK(std::fflush(file_) == 0);
  ++next_seq_;
}

// --- progress log -----------------------------------------------------------

ProgressLog::ProgressLog(std::string path, std::string kind,
                         std::uint64_t schema_version, json::Value fingerprint)
    : path_(std::move(path)),
      kind_(std::move(kind)),
      schema_version_(schema_version),
      fingerprint_(std::move(fingerprint)) {}

bool ProgressLog::resume(const std::function<void(const json::Value&)>& apply,
                         bool fresh_on_corrupt) {
  std::string text;
  if (path_.empty() || !read_file(path_, text)) return false;
  try {
    const std::vector<json::Value> records = parse_journal_text(text);
    // No committed record: the crash hit the first flush.
    if (records.empty()) return false;
    // kind and schema_version name the format (another one is damage);
    // the fingerprint names the run (another one is operator error).
    const json::Value& header = records[0];
    const json::Value* kind = header.find("kind");
    const json::Value* version = header.find("schema_version");
    const json::Value* fingerprint = header.find("fingerprint");
    if (kind == nullptr || version == nullptr || fingerprint == nullptr ||
        kind->dump() != json::Value(kind_).dump() ||
        version->dump() != json::Value(schema_version_).dump())
      throw CheckpointCorrupt("checkpoint header is not " + kind_ +
                              " schema " + std::to_string(schema_version_));
    if (fingerprint->dump() != fingerprint_.dump())
      throw ContractViolation(kind_ + " fingerprint mismatch:\n  checkpoint " +
                              fingerprint->dump() + "\n  this run   " +
                              fingerprint_.dump());
    for (const json::Value& flush : records) {
      try {
        apply(flush);
      } catch (const json::JsonError& e) {
        throw CheckpointCorrupt(kind_ + ": " + e.what());
      } catch (const ContractViolation& e) {
        throw CheckpointCorrupt(kind_ + ": " + e.what());
      }
    }
    journal_.emplace(path_, records.size(), "checkpoint.write");
    return true;
  } catch (const CheckpointCorrupt&) {
    if (!fresh_on_corrupt) throw;
    // Determinism makes a fresh start reach the same final result: keep
    // the evidence aside and recount.
    quarantine_corrupt_file(path_);
    return false;
  }
}

void ProgressLog::append(std::uint64_t position, json::Value flush) {
  if (path_.empty() || position_ == position) return;
  position_ = position;
  if (journal_) {
    journal_->append(std::move(flush));
    return;
  }
  // A new log: the first flush also carries the header.
  journal_.emplace(path_, 0, "checkpoint.write");
  json::Object first;
  first.emplace_back("kind", kind_);
  first.emplace_back("schema_version", schema_version_);
  first.emplace_back("fingerprint", fingerprint_);
  for (auto& member : flush.as_object()) first.push_back(std::move(member));
  journal_->append(json::Value(std::move(first)));
}

}  // namespace eqc
