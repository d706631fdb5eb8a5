// Unit tests for the common substrate: RNG, matrices, statistics, contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "common/checkpoint.h"
#include "common/json.h"
#include "common/matrix.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"

namespace eqc {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanNearHalf) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(3);
  EXPECT_FALSE(rng.bernoulli(0.0));
  EXPECT_TRUE(rng.bernoulli(1.0));
  EXPECT_FALSE(rng.bernoulli(-0.5));
  EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, BernoulliRate) {
  Rng rng(5);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.01);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues reached
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(13);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowZeroViolatesContract) {
  Rng rng(1);
  EXPECT_THROW(rng.below(0), ContractViolation);
}

TEST(Rng, BernoulliNaNViolatesContract) {
  // NaN compares false against everything, so an unguarded bernoulli(NaN)
  // would silently return false — a noise model with a NaN probability
  // would look perfectly clean.  It must be a contract violation instead.
  Rng rng(2);
  EXPECT_THROW(rng.bernoulli(std::nan("")), ContractViolation);
}

TEST(Rng, DeriveStreamSeedIsPureAndDecorrelated) {
  // Pure function of (seed, index)...
  EXPECT_EQ(derive_stream_seed(42, 7), derive_stream_seed(42, 7));
  // ...and adjacent indices (or seeds) give unrelated streams: across many
  // derivations no two collide and the derived Rngs disagree immediately.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 1000; ++i)
    seeds.insert(derive_stream_seed(42, i));
  for (std::uint64_t s = 10000; s < 10100; ++s)
    seeds.insert(derive_stream_seed(s, 0));
  EXPECT_EQ(seeds.size(), 1100u);
  Rng a(derive_stream_seed(42, 0)), b(derive_stream_seed(42, 1));
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, SplitStreamsAreIndependentAndReproducible) {
  Rng parent1(99), parent2(99), parent3(99);
  Rng child1 = parent1.split();
  Rng child2 = parent2.split();
  // split_seed() is split() with the child's construction deferred.
  Rng child3(parent3.split_seed());
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t v = child1();
    EXPECT_EQ(v, child2());
    EXPECT_EQ(v, child3());
  }
  // Parent continues deterministically after the split.
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t v = parent1();
    EXPECT_EQ(v, parent2());
    EXPECT_EQ(v, parent3());
  }
}

TEST(Matrix, IdentityIsUnitary) {
  EXPECT_TRUE(Mat2::identity().is_unitary());
  EXPECT_TRUE(Mat4::identity().is_unitary());
}

TEST(Matrix, ProductAndAdjoint) {
  Mat2 h;
  const double s = 1.0 / std::sqrt(2.0);
  h(0, 0) = s;
  h(0, 1) = s;
  h(1, 0) = s;
  h(1, 1) = -s;
  EXPECT_TRUE(h.is_unitary());
  EXPECT_TRUE(approx_equal(h * h, Mat2::identity()));
  EXPECT_TRUE(approx_equal(h.adjoint(), h));
}

TEST(Matrix, NonUnitaryDetected) {
  Mat2 m;
  m(0, 0) = 2.0;
  EXPECT_FALSE(m.is_unitary());
}

TEST(Matrix, ApproxEqualUpToPhase) {
  Mat2 a = Mat2::identity();
  Mat2 b = cplx{0, 1} * Mat2::identity();
  EXPECT_FALSE(approx_equal(a, b));
  EXPECT_TRUE(approx_equal_up_to_phase(a, b));
}

TEST(Matrix, KroneckerOfIdentities) {
  EXPECT_TRUE(approx_equal(kron(Mat2::identity(), Mat2::identity()),
                           Mat4::identity()));
}

TEST(Matrix, KroneckerOrdering) {
  Mat2 z = Mat2::identity();
  z(1, 1) = -1;
  // Z (x) I: sign depends on the high bit.
  const Mat4 zi = kron(z, Mat2::identity());
  EXPECT_EQ(zi(0, 0), cplx(1, 0));
  EXPECT_EQ(zi(1, 1), cplx(1, 0));
  EXPECT_EQ(zi(2, 2), cplx(-1, 0));
  EXPECT_EQ(zi(3, 3), cplx(-1, 0));
}

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
}

TEST(Stats, WilsonIntervalContainsTruth) {
  const auto iv = wilson_interval(30, 100);
  EXPECT_NEAR(iv.center, 0.3, 1e-12);
  EXPECT_LT(iv.low, 0.3);
  EXPECT_GT(iv.high, 0.3);
  EXPECT_GE(iv.low, 0.0);
  EXPECT_LE(iv.high, 1.0);
}

TEST(Stats, WilsonIntervalZeroTrials) {
  const auto iv = wilson_interval(0, 0);
  EXPECT_EQ(iv.center, 0.0);
}

TEST(Stats, WilsonIntervalExtremes) {
  const auto zero = wilson_interval(0, 50);
  EXPECT_EQ(zero.center, 0.0);
  EXPECT_GT(zero.high, 0.0);  // still uncertain
  const auto all = wilson_interval(50, 50);
  EXPECT_EQ(all.center, 1.0);
  EXPECT_LT(all.low, 1.0);
}

TEST(Stats, FailureCounter) {
  FailureCounter c;
  c.add(true);
  c.add(false);
  c.add(false);
  c.add(true);
  EXPECT_EQ(c.trials, 4u);
  EXPECT_EQ(c.failures, 2u);
  EXPECT_DOUBLE_EQ(c.rate(), 0.5);
}

TEST(Parallel, ResolveJobs) {
  EXPECT_EQ(parallel::resolve_jobs(1), 1u);
  EXPECT_EQ(parallel::resolve_jobs(7), 7u);
  EXPECT_GE(parallel::resolve_jobs(0), 1u);  // 0 = hardware concurrency
}

TEST(Parallel, EveryShardRunsExactlyOnce) {
  for (unsigned jobs : {1u, 2u, 16u}) {
    std::vector<std::atomic<int>> hits(37);
    parallel::for_each_shard(37, jobs, [&](unsigned s) { ++hits[s]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(Parallel, ZeroShardsIsANoOp) {
  parallel::for_each_shard(0, 4, [](unsigned) { FAIL(); });
}

TEST(Parallel, FirstExceptionPropagates) {
  for (unsigned jobs : {1u, 4u}) {
    EXPECT_THROW(parallel::for_each_shard(
                     8, jobs,
                     [](unsigned s) {
                       if (s == 3) throw std::runtime_error("boom");
                     }),
                 std::runtime_error)
        << "jobs=" << jobs;
  }
}

TEST(Parallel, ParseJobsAcceptsOnlyBoundedDecimalCounts) {
  EXPECT_EQ(parallel::parse_jobs("0"), 0u);  // 0 = hardware concurrency
  EXPECT_EQ(parallel::parse_jobs("4"), 4u);
  EXPECT_EQ(parallel::parse_jobs("0004"), 4u);
  EXPECT_EQ(parallel::parse_jobs("1024"), parallel::kMaxJobs);
  for (const char* bad : {"", "-1", "+4", " 4", "4 ", "4x", "abc", "1.5",
                          "1025", "4294967295", "99999999999999999999"})
    EXPECT_EQ(parallel::parse_jobs(bad), std::nullopt) << "'" << bad << "'";
}

TEST(Parallel, ParseU64AcceptsOnlyWholeDecimalCounts) {
  EXPECT_EQ(parallel::parse_u64("0"), 0u);
  EXPECT_EQ(parallel::parse_u64("500"), 500u);
  EXPECT_EQ(parallel::parse_u64("0042"), 42u);
  EXPECT_EQ(parallel::parse_u64("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", "x", "1e4", "-1", "+4", " 4", "4 ", "4x",
                          "1.5", "0x10", "18446744073709551616"})
    EXPECT_EQ(parallel::parse_u64(bad), std::nullopt) << "'" << bad << "'";
}

TEST(Parallel, ParseDoubleAcceptsOnlyWholeFiniteNumbers) {
  EXPECT_EQ(parallel::parse_double("1e-3"), 1e-3);
  EXPECT_EQ(parallel::parse_double("0.5"), 0.5);
  EXPECT_EQ(parallel::parse_double("2"), 2.0);
  EXPECT_EQ(parallel::parse_double("-0.25"), -0.25);
  EXPECT_EQ(parallel::parse_double("1E4"), 1e4);
  for (const char* bad : {"", "x", "1e", "1e-3x", " 1", "1 ", "+1", "0x1p3",
                          "inf", "-inf", "nan", "1e999"})
    EXPECT_EQ(parallel::parse_double(bad), std::nullopt) << "'" << bad << "'";
}

// --- parallel::sweep --------------------------------------------------------

/// Folded (index, outcome) pairs of one sweep, in fold order.
using Folded = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

/// An outcome that is a pure function of the index.
std::uint64_t outcome_of(std::uint64_t i) { return derive_stream_seed(7, i); }

TEST(Sweep, FoldsEveryIndexOnceInIndexOrder) {
  constexpr std::uint64_t kItems = 300;
  for (const unsigned jobs : {1u, 3u, 7u}) {
    std::vector<std::atomic<int>> evals(kItems);
    Folded folded;
    parallel::SweepOptions opt;
    opt.jobs = jobs;
    const std::uint64_t next = parallel::sweep(
        0, kItems, opt,
        [&](unsigned, std::uint64_t i) {
          ++evals[i];
          // Random per-item cost, so items complete out of order.
          Rng rng(derive_stream_seed(jobs, i));
          std::this_thread::sleep_for(
              std::chrono::microseconds(rng.below(300)));
          return std::optional<std::uint64_t>(outcome_of(i));
        },
        [&](std::uint64_t i, std::uint64_t out) {
          folded.emplace_back(i, out);
        });
    EXPECT_EQ(next, kItems) << "jobs=" << jobs;
    ASSERT_EQ(folded.size(), kItems) << "jobs=" << jobs;
    for (std::uint64_t i = 0; i < kItems; ++i) {
      EXPECT_EQ(folded[i].first, i) << "jobs=" << jobs;
      EXPECT_EQ(folded[i].second, outcome_of(i)) << "jobs=" << jobs;
      EXPECT_EQ(evals[i].load(), 1) << "jobs=" << jobs << " i=" << i;
    }
  }
}

TEST(Sweep, IndicesPastTwoToTheThirtyTwoStayIntact) {
  const std::uint64_t first = (std::uint64_t{1} << 32) - 3;
  const std::uint64_t last = (std::uint64_t{1} << 32) + 3;
  for (const unsigned jobs : {1u, 3u}) {
    std::vector<std::uint64_t> seen_by_eval;
    std::mutex mu;
    Folded folded;
    parallel::SweepOptions opt;
    opt.jobs = jobs;
    const std::uint64_t next = parallel::sweep(
        first, last, opt,
        [&](unsigned, std::uint64_t i) {
          std::lock_guard<std::mutex> lock(mu);
          seen_by_eval.push_back(i);
          return std::optional<std::uint64_t>(i);
        },
        [&](std::uint64_t i, std::uint64_t out) {
          folded.emplace_back(i, out);
        });
    EXPECT_EQ(next, last);
    std::sort(seen_by_eval.begin(), seen_by_eval.end());
    ASSERT_EQ(folded.size(), 6u);
    ASSERT_EQ(seen_by_eval.size(), 6u);
    for (std::uint64_t k = 0; k < 6; ++k) {
      EXPECT_EQ(seen_by_eval[k], first + k);
      EXPECT_EQ(folded[k].first, first + k);
      EXPECT_EQ(folded[k].second, first + k);
    }
  }
}

TEST(Sweep, StopFromProgressThenResumeFoldsTheUninterruptedSequence) {
  constexpr std::uint64_t kItems = 120;
  auto eval = [](unsigned, std::uint64_t i) {
    return std::optional<std::uint64_t>(outcome_of(i));
  };
  for (const unsigned jobs : {1u, 3u, 7u}) {
    Folded whole;
    parallel::SweepOptions plain;
    plain.jobs = jobs;
    parallel::sweep(0, kItems, plain, eval,
                    [&](std::uint64_t i, std::uint64_t out) {
                      whole.emplace_back(i, out);
                    });

    for (const std::uint64_t stop_at : {std::uint64_t{1}, std::uint64_t{37},
                                        kItems - 1}) {
      Folded pieces;
      auto fold = [&](std::uint64_t i, std::uint64_t out) {
        pieces.emplace_back(i, out);
      };
      std::atomic<bool> stop{false};
      parallel::SweepOptions first;
      first.jobs = jobs;
      first.stop = &stop;
      first.progress = [&](std::uint64_t next) {
        if (next == stop_at) stop.store(true);
      };
      const std::uint64_t resume =
          parallel::sweep(0, kItems, first, eval, fold);
      EXPECT_EQ(resume, stop_at) << "jobs=" << jobs;
      EXPECT_EQ(pieces.size(), stop_at) << "jobs=" << jobs;

      parallel::SweepOptions second;
      second.jobs = jobs == 1 ? 4 : 1;  // any worker count may resume
      EXPECT_EQ(parallel::sweep(resume, kItems, second, eval, fold), kItems);
      EXPECT_EQ(pieces, whole) << "jobs=" << jobs << " stop_at=" << stop_at;
    }
  }
}

TEST(Sweep, AbandonedIndexFoldsNothingLater) {
  constexpr std::uint64_t kItems = 200;
  constexpr std::uint64_t kAt = 20;
  for (const unsigned jobs : {1u, 4u}) {
    // Evaluation abandons index kAt; later indices would succeed.
    std::vector<std::uint64_t> folded;
    parallel::SweepOptions opt;
    opt.jobs = jobs;
    const std::uint64_t next = parallel::sweep(
        0, kItems, opt,
        [](unsigned, std::uint64_t i) -> std::optional<std::uint64_t> {
          if (i == kAt) return std::nullopt;
          return i;
        },
        [&](std::uint64_t i, std::uint64_t) { folded.push_back(i); });
    EXPECT_EQ(next, kAt) << "jobs=" << jobs;
    ASSERT_EQ(folded.size(), kAt) << "jobs=" << jobs;
    for (std::uint64_t i = 0; i < kAt; ++i) EXPECT_EQ(folded[i], i);
  }
}

TEST(Sweep, ConcurrentEvalsNeverShareAWorkerIndex) {
  constexpr std::uint64_t kItems = 400;
  constexpr unsigned kJobs = 4;
  const unsigned workers = parallel::sweep_workers(kJobs, kItems);
  EXPECT_EQ(workers, kJobs);
  EXPECT_EQ(parallel::sweep_workers(kJobs, 2), 2u);
  EXPECT_EQ(parallel::sweep_workers(kJobs, 0), 1u);
  std::vector<std::atomic<int>> busy(workers);
  std::atomic<int> shared{0};
  std::atomic<int> out_of_range{0};
  parallel::SweepOptions opt;
  opt.jobs = kJobs;
  parallel::sweep(
      0, kItems, opt,
      [&](unsigned worker, std::uint64_t i) {
        if (worker >= workers) {
          ++out_of_range;
          return std::optional<int>(0);
        }
        if (busy[worker].exchange(1) != 0) ++shared;
        std::this_thread::sleep_for(std::chrono::microseconds(i % 50));
        busy[worker].store(0);
        return std::optional<int>(0);
      },
      [](std::uint64_t, int) {});
  EXPECT_EQ(out_of_range.load(), 0);
  EXPECT_EQ(shared.load(), 0);
}

TEST(Sweep, FirstExceptionIsRethrown) {
  for (const unsigned jobs : {1u, 4u}) {
    parallel::SweepOptions opt;
    opt.jobs = jobs;
    std::atomic<std::uint64_t> evals{0};
    EXPECT_THROW(parallel::sweep(
                     0, 100000, opt,
                     [&](unsigned, std::uint64_t i) {
                       ++evals;
                       if (i == 13) throw std::runtime_error("boom");
                       return std::optional<int>(0);
                     },
                     [](std::uint64_t, int) {}),
                 std::runtime_error)
        << "jobs=" << jobs;
    EXPECT_LT(evals.load(), 100000u) << "workers kept claiming after a throw";
    auto zero = [](unsigned, std::uint64_t) { return std::optional<int>(0); };
    EXPECT_THROW(parallel::sweep(
                     0, 100, opt, zero,
                     [](std::uint64_t i, int) {
                       if (i == 5) throw std::logic_error("fold");
                     }),
                 std::logic_error)
        << "jobs=" << jobs;
  }
}

TEST(Sweep, EmptyRangeAndPresetStopFoldNothing) {
  parallel::SweepOptions opt;
  opt.jobs = 4;
  auto never = [](unsigned, std::uint64_t) -> std::optional<int> {
    ADD_FAILURE() << "eval called";
    return 0;
  };
  auto no_fold = [](std::uint64_t, int) { ADD_FAILURE() << "fold called"; };
  EXPECT_EQ(parallel::sweep(9, 9, opt, never, no_fold), 9u);
  std::atomic<bool> stop{true};
  opt.stop = &stop;
  EXPECT_EQ(parallel::sweep(5, 50, opt, never, no_fold), 5u);
}

TEST(Contracts, MacrosThrow) {
  EXPECT_THROW(EQC_EXPECTS(false), ContractViolation);
  EXPECT_THROW(EQC_ENSURES(false), ContractViolation);
  EXPECT_THROW(EQC_CHECK(false), ContractViolation);
  EXPECT_NO_THROW(EQC_EXPECTS(true));
}

TEST(Json, ParseDumpRoundTripIsByteStable) {
  const std::string text =
      R"({"a":1,"b":[true,false,null],"c":{"n":-7,"s":"hi\"there"},"d":0.5})";
  const auto v = json::Value::parse(text);
  EXPECT_EQ(v.dump(), text);
  // dump(parse(dump(x))) is a fixed point.
  EXPECT_EQ(json::Value::parse(v.dump()).dump(), text);
}

TEST(Json, ObjectsKeepInsertionOrder) {
  json::Value obj{json::Object{}};
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  obj.set("zebra", 3);  // replace in place, order unchanged
  EXPECT_EQ(obj.dump(), R"({"zebra":3,"alpha":2})");
  EXPECT_EQ(obj.at("zebra").as_i64(), 3);
  EXPECT_EQ(obj.find("missing"), nullptr);
  EXPECT_THROW(obj.at("missing"), json::JsonError);
}

TEST(Json, SixtyFourBitIntegersRoundTripExactly) {
  // Values a double cannot represent must survive parse/dump unchanged.
  const std::uint64_t big_u = 18446744073709551615ull;  // 2^64 - 1
  const std::int64_t big_i = -9223372036854775807ll - 1;  // -2^63
  json::Value obj{json::Object{}};
  obj.set("u", big_u);
  obj.set("i", big_i);
  const auto back = json::Value::parse(obj.dump());
  EXPECT_EQ(back.at("u").as_u64(), big_u);
  EXPECT_EQ(back.at("i").as_i64(), big_i);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::Value::parse(""), json::JsonError);
  EXPECT_THROW(json::Value::parse("{"), json::JsonError);
  EXPECT_THROW(json::Value::parse("[1,]"), json::JsonError);
  EXPECT_THROW(json::Value::parse("{\"a\":1} trailing"), json::JsonError);
  EXPECT_THROW(json::Value::parse("nul"), json::JsonError);
  EXPECT_THROW(json::Value::parse("'single'"), json::JsonError);
}

TEST(Json, StringEscapesRoundTrip) {
  json::Value v{std::string("line\nbreak\ttab \x01 quote\" back\\")};
  const auto back = json::Value::parse(v.dump());
  EXPECT_EQ(back.as_string(), v.as_string());
  // \uXXXX escapes decode to UTF-8.
  EXPECT_EQ(json::Value::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");
}

TEST(Stats, FailureCounterMergeAndInterval) {
  FailureCounter a;
  for (int i = 0; i < 100; ++i) a.add(i < 25);
  EXPECT_EQ(a.trials, 100u);
  EXPECT_EQ(a.failures, 25u);
  const auto iv = a.interval();
  EXPECT_LT(iv.low, 0.25);
  EXPECT_GT(iv.high, 0.25);
  EXPECT_GT(iv.low, 0.15);
  EXPECT_LT(iv.high, 0.37);
}

TEST(Stats, FailureCounterJsonRoundTrip) {
  FailureCounter c;
  c.trials = 40;
  c.failures = 4;
  const auto v = c.to_json_value();
  std::vector<std::string> keys;
  for (const auto& [key, value] : v.as_object()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"trials", "failures", "rate",
                                            "wilson_low", "wilson_high"}));
  EXPECT_EQ(v.at("trials").as_u64(), 40u);
  EXPECT_EQ(v.at("failures").as_u64(), 4u);
  EXPECT_DOUBLE_EQ(v.at("rate").as_double(), 0.1);
  const auto iv = c.interval();
  EXPECT_DOUBLE_EQ(v.at("wilson_low").as_double(), iv.low);
  EXPECT_DOUBLE_EQ(v.at("wilson_high").as_double(), iv.high);
}

TEST(Stats, EstimatorJsonStatesFixedNWilson95) {
  const auto v = estimator_json("frames_64_lane", 7);
  EXPECT_EQ(v.dump(),
            "{\"stopping_rule\":\"fixed_n\",\"interval\":\"wilson_95\","
            "\"engine\":\"frames_64_lane\",\"stream_revision\":7}");
}

// --- checkpoint plumbing ----------------------------------------------------

TEST(Checkpoint, WriteAtomicallyRoundTripsAndReplaces) {
  const std::string path = ::testing::TempDir() + "ck_atomic.json";
  std::remove(path.c_str());
  write_file_atomically(path, "first");
  std::string content;
  ASSERT_TRUE(read_file(path, content));
  EXPECT_EQ(content, "first");
  write_file_atomically(path, "second");
  ASSERT_TRUE(read_file(path, content));
  EXPECT_EQ(content, "second");
  std::remove(path.c_str());
}

TEST(Checkpoint, ReadFileFalseWhenMissing) {
  std::string content;
  EXPECT_FALSE(read_file(::testing::TempDir() + "ck_missing.json", content));
}

TEST(Checkpoint, QuarantineMovesTheEvidenceAside) {
  const std::string path = ::testing::TempDir() + "ck_quarantine.json";
  write_file_atomically(path, "damaged");
  const std::string moved = quarantine_corrupt_file(path);
  EXPECT_EQ(moved, path + ".corrupt");
  std::string content;
  EXPECT_FALSE(read_file(path, content));
  ASSERT_TRUE(read_file(moved, content));
  EXPECT_EQ(content, "damaged");
  std::remove(moved.c_str());
  // Nothing to quarantine: empty return, no throw.
  EXPECT_TRUE(quarantine_corrupt_file(path).empty());
}

// --- journal ----------------------------------------------------------------

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  std::remove((path + ".corrupt").c_str());
  return path;
}

std::string slurp(const std::string& path) {
  std::string text;
  (void)read_file(path, text);
  return text;
}

void spit(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

json::Value event(const char* name, std::uint64_t id) {
  json::Object obj;
  obj.emplace_back("event", name);
  obj.emplace_back("id", id);
  return json::Value(std::move(obj));
}

constexpr char kMetric[] = "test.journal.append";

TEST(Journal, AppendLoadRoundTripsWithSequentialSeq) {
  const std::string path = temp_path("journal_roundtrip.jsonl");
  {
    Journal journal(path, 0, kMetric);
    journal.append(event("submit", 0));
    journal.append(event("start", 0));
    journal.append(event("done", 0));
  }
  const auto records = Journal::load(path);
  ASSERT_EQ(records.size(), 3u);
  for (std::size_t i = 0; i < records.size(); ++i)
    EXPECT_EQ(records[i].at("seq").as_u64(), i);
  EXPECT_EQ(records[1].at("event").as_string(), "start");
}

TEST(Journal, AppendContinuesAnExistingHistory) {
  const std::string path = temp_path("journal_continue.jsonl");
  {
    Journal journal(path, 0, kMetric);
    journal.append(event("submit", 0));
  }
  {
    const auto records = Journal::load(path);
    Journal journal(path, records.size(), kMetric);
    journal.append(event("done", 0));
  }
  const auto records = Journal::load(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].at("seq").as_u64(), 1u);
}

TEST(Journal, MissingFileLoadsEmpty) {
  EXPECT_TRUE(Journal::load(temp_path("journal_missing.jsonl")).empty());
}

TEST(Journal, TornTailIsDiscardedNotFatal) {
  const std::string path = temp_path("journal_torn.jsonl");
  {
    Journal journal(path, 0, kMetric);
    journal.append(event("submit", 0));
    journal.append(event("start", 0));
  }
  // Simulate a crash mid-append: a fragment with no trailing newline.
  spit(path, slurp(path) + R"({"seq":2,"event":"do)");
  const auto records = Journal::load(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].at("event").as_string(), "start");
}

// Regression: reopening after a torn tail used to append directly behind
// the fragment, so the next load found an unparseable interior line and
// threw the whole history away.
TEST(Journal, AppendAfterTornTailKeepsEveryRecord) {
  const std::string path = temp_path("journal_torn_append.jsonl");
  {
    Journal journal(path, 0, kMetric);
    journal.append(event("submit", 0));
    journal.append(event("start", 0));
  }
  spit(path, slurp(path) + R"({"seq":2,"event":"do)");
  for (const char* name : {"done", "submit"}) {
    const auto records = Journal::load(path);
    Journal journal(path, records.size(), kMetric);
    journal.append(event(name, 1));
  }
  std::vector<json::Value> records;
  ASSERT_NO_THROW(records = Journal::load(path));
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[2].at("event").as_string(), "done");
  EXPECT_EQ(records[3].at("event").as_string(), "submit");
  EXPECT_EQ(records[3].at("seq").as_u64(), 3u);
}

TEST(Journal, LoadStatsReportRecordCountAndTornTailBytes) {
  const std::string path = temp_path("journal_stats.jsonl");
  {
    Journal journal(path, 0, kMetric);
    journal.append(event("submit", 0));
    journal.append(event("start", 0));
  }
  const std::string fragment = R"({"seq":2,"event":"do)";
  spit(path, slurp(path) + fragment);
  JournalLoadStats stats;
  const auto records = Journal::load(path, &stats);
  EXPECT_EQ(records.size(), 2u);
  EXPECT_EQ(stats.records, 2u);
  EXPECT_EQ(stats.torn_bytes, fragment.size());

  // A clean journal reports zero torn bytes.
  JournalLoadStats clean;
  parse_journal_text(R"({"seq":0,"event":"submit","id":0})"
                     "\n",
                     &clean);
  EXPECT_EQ(clean.records, 1u);
  EXPECT_EQ(clean.torn_bytes, 0u);
}

TEST(Journal, TruncationAtEveryByteOffsetNeverCrashes) {
  const std::string path = temp_path("journal_truncate.jsonl");
  {
    Journal journal(path, 0, kMetric);
    journal.append(event("submit", 0));
    journal.append(event("start", 0));
    journal.append(event("cancel", 0));
    journal.append(event("cancelled", 0));
  }
  const std::string full = slurp(path);
  ASSERT_FALSE(full.empty());
  const auto complete = Journal::load(path);

  for (std::size_t len = 0; len <= full.size(); ++len) {
    const std::string trunc = full.substr(0, len);
    spit(path, trunc);
    // A truncated journal is a complete prefix of records plus at most a
    // torn tail: load() must return exactly the records whose full line
    // (including '\n') survived — never throw, never crash.
    std::vector<json::Value> records;
    ASSERT_NO_THROW(records = Journal::load(path)) << "offset " << len;
    std::size_t expected = 0;
    for (std::size_t i = 0; i < len; ++i)
      if (full[i] == '\n') ++expected;
    EXPECT_EQ(records.size(), expected) << "offset " << len;
  }
  spit(path, full);
  EXPECT_EQ(Journal::load(path).size(), complete.size());
}

TEST(Journal, SingleByteCorruptionIsCaughtOrHarmless) {
  const std::string path = temp_path("journal_corrupt.jsonl");
  {
    Journal journal(path, 0, kMetric);
    journal.append(event("submit", 0));
    journal.append(event("start", 0));
    journal.append(event("done", 0));
  }
  const std::string full = slurp(path);
  Rng rng(2026);
  for (int i = 0; i < 200; ++i) {
    const std::size_t pos = rng.below(full.size());
    std::string damaged = full;
    damaged[pos] = static_cast<char>(rng.below(256));
    if (damaged == full) continue;
    spit(path, damaged);
    // Either the damage is syntactically harmless (e.g. inside a string)
    // or it must surface as the distinct CheckpointCorrupt — never a
    // crash, never a different exception type.
    try {
      (void)Journal::load(path);
    } catch (const CheckpointCorrupt&) {
      // expected for structural damage
    }
  }
}

TEST(Journal, OutOfOrderSeqIsCorrupt) {
  const std::string path = temp_path("journal_seq.jsonl");
  spit(path,
       "{\"seq\":0,\"event\":\"submit\",\"id\":0}\n"
       "{\"seq\":2,\"event\":\"done\",\"id\":0}\n");
  EXPECT_THROW((void)Journal::load(path), CheckpointCorrupt);
}

TEST(Journal, UnterminatedTailThatIsNoRecordIsCorrupt) {
  // A whole-document file (no trailing newline) cannot be a torn record.
  EXPECT_THROW((void)parse_journal_text(R"({"kind":"x","schema_version":1})"),
               CheckpointCorrupt);
  EXPECT_THROW((void)parse_journal_text("{\"seq\":0}\n{\"kind\""),
               CheckpointCorrupt);
  // Every prefix of a record's opening is a torn tail.
  for (const char* torn : {"", "{", "{\"se", "{\"seq\":", "{\"seq\":0,\"k"})
    EXPECT_TRUE(parse_journal_text(torn).empty()) << torn;
}

// --- progress log -----------------------------------------------------------

json::Value test_fingerprint(std::uint64_t seed) {
  json::Object fp;
  fp.emplace_back("seed", seed);
  return json::Value(std::move(fp));
}

json::Value flush(std::uint64_t next, std::uint64_t item) {
  json::Object rec;
  rec.emplace_back("next_index", next);
  json::Array items;
  items.emplace_back(item);
  rec.emplace_back("items", json::Value(std::move(items)));
  return json::Value(std::move(rec));
}

TEST(ProgressLog, ReplaysEveryFlushInOrderThenAppendsBehindThem) {
  const std::string path = temp_path("progress_replay.jsonl");
  {
    ProgressLog log(path, "test-kind", 4, test_fingerprint(1));
    log.append(2, flush(2, 10));
    log.append(5, flush(5, 11));
    log.append(5, flush(5, 11));  // nothing new since the last flush
  }
  // The first record carries the header; every record is one line.
  const auto records = Journal::load(path);
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].at("kind").as_string(), "test-kind");
  EXPECT_EQ(records[0].at("schema_version").as_u64(), 4u);
  EXPECT_EQ(records[1].find("kind"), nullptr);

  std::vector<std::uint64_t> items;
  ProgressLog log(path, "test-kind", 4, test_fingerprint(1));
  ASSERT_TRUE(log.resume(
      [&](const json::Value& rec) {
        items.push_back(rec.at("items").as_array()[0].as_u64());
      },
      false));
  EXPECT_EQ(items, (std::vector<std::uint64_t>{10, 11}));
  log.append(9, flush(9, 12));
  EXPECT_EQ(Journal::load(path).size(), 3u);
}

TEST(ProgressLog, HeaderValidatesKindAndSchemaVersion) {
  const std::string path = temp_path("progress_header.jsonl");
  {
    ProgressLog log(path, "test-kind", 4, test_fingerprint(1));
    log.append(2, flush(2, 10));
  }
  auto resume = [&](const char* kind, std::uint64_t version,
                    std::uint64_t seed) {
    ProgressLog log(path, kind, version, test_fingerprint(seed));
    return log.resume([](const json::Value&) {}, false);
  };
  EXPECT_TRUE(resume("test-kind", 4, 1));
  EXPECT_THROW((void)resume("other", 4, 1), CheckpointCorrupt);
  EXPECT_THROW((void)resume("test-kind", 3, 1), CheckpointCorrupt);
  // A foreign fingerprint is operator error, not damage.
  EXPECT_THROW((void)resume("test-kind", 4, 2), ContractViolation);
  for (const char* header :
       {R"({"seq":0,"schema_version":4,"fingerprint":{"seed":1}})",
        R"({"seq":0,"kind":"test-kind","fingerprint":{"seed":1}})",
        R"({"seq":0,"kind":"test-kind","schema_version":4})",
        R"({"seq":0,"kind":"test-kind","schema_version":-4,)"
        R"("fingerprint":{"seed":1}})"}) {
    spit(path, std::string(header) + "\n");
    EXPECT_THROW((void)resume("test-kind", 4, 1), CheckpointCorrupt)
        << header;
  }
}

TEST(ProgressLog, UnfoldableRecordIsCorruptAndFreshOnCorruptQuarantines) {
  const std::string path = temp_path("progress_unfoldable.jsonl");
  {
    ProgressLog log(path, "test-kind", 4, test_fingerprint(1));
    log.append(2, flush(2, 10));
  }
  const std::string original = slurp(path);
  auto missing_member = [](const json::Value& rec) {
    (void)rec.at("absent");
  };
  ProgressLog strict(path, "test-kind", 4, test_fingerprint(1));
  EXPECT_THROW((void)strict.resume(missing_member, false), CheckpointCorrupt);
  EXPECT_EQ(slurp(path), original);

  ProgressLog tolerant(path, "test-kind", 4, test_fingerprint(1));
  EXPECT_FALSE(tolerant.resume(missing_member, true));
  EXPECT_EQ(slurp(path + ".corrupt"), original);
  // The next append starts a new log.
  tolerant.append(1, flush(1, 7));
  const auto records = Journal::load(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("kind").as_string(), "test-kind");
  std::remove((path + ".corrupt").c_str());
}

TEST(ProgressLog, TornFirstFlushResumesNothingAndStartsAfresh) {
  const std::string path = temp_path("progress_torn_first.jsonl");
  spit(path, R"({"seq":0,"kind":"test-ki)");
  ProgressLog log(path, "test-kind", 4, test_fingerprint(1));
  EXPECT_FALSE(log.resume([](const json::Value&) { FAIL(); }, false));
  log.append(3, flush(3, 1));
  const auto records = Journal::load(path);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].at("next_index").as_u64(), 3u);
}

TEST(ProgressLog, EmptyPathDisablesTheLog) {
  ProgressLog log("", "test-kind", 4, test_fingerprint(1));
  EXPECT_FALSE(log.resume([](const json::Value&) { FAIL(); }, false));
  log.append(1, flush(1, 1));  // no file, no throw
}

TEST(CheckpointCadence, ItemCountLegFiresEveryN) {
  const auto t0 = CheckpointCadence::Clock::now();
  CheckpointCadence cadence(3, 0.0, t0);
  EXPECT_FALSE(cadence.item_done(t0));
  EXPECT_FALSE(cadence.item_done(t0));
  EXPECT_TRUE(cadence.item_done(t0));  // third item: due
  cadence.wrote(t0);
  EXPECT_FALSE(cadence.item_done(t0));  // counter reset
}

TEST(CheckpointCadence, WallTimeLegBoundsTheLossWindow) {
  using namespace std::chrono;
  const auto t0 = CheckpointCadence::Clock::now();
  CheckpointCadence cadence(1000000, 5.0, t0);
  // Far below the item leg, but past the time leg: due.
  EXPECT_FALSE(cadence.item_done(t0 + seconds(4)));
  EXPECT_TRUE(cadence.item_done(t0 + seconds(6)));
  cadence.wrote(t0 + seconds(6));
  EXPECT_FALSE(cadence.item_done(t0 + seconds(10)));  // clock restarted
  EXPECT_TRUE(cadence.item_done(t0 + seconds(12)));
}

TEST(CheckpointCadence, ZeroIntervalDisablesTheTimeLeg) {
  using namespace std::chrono;
  const auto t0 = CheckpointCadence::Clock::now();
  CheckpointCadence cadence(10, 0.0, t0);
  EXPECT_FALSE(cadence.item_done(t0 + hours(100)));
}

TEST(CheckpointCadence, EveryZeroItemsMeansEveryItem) {
  const auto t0 = CheckpointCadence::Clock::now();
  CheckpointCadence cadence(0, 0.0, t0);
  EXPECT_TRUE(cadence.item_done(t0));
}

}  // namespace
}  // namespace eqc
