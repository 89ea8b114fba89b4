// Service-layer suite: content-addressed trace digests, the TraceCache
// (hits by identity key, LRU eviction over resident bytes), the
// ResultMemo (bit-identical hits, LRU eviction), the JSON line
// protocol, and the ReplayService end to end — request handling (hits
// answered inside submit() while a replay runs, in-flight joins, concurrent
// submitters, admission, shutdown) and the differential guarantee the whole
// layer hangs on: a memoised response is bit-for-bit the report a cold
// replay computes.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "platform/cluster.hpp"
#include "platform/deployment.hpp"
#include "platform/platform_file.hpp"
#include "platform/topology.hpp"
#include "replay/montecarlo.hpp"
#include "replay/perturb.hpp"
#include "replay/scenario.hpp"
#include "replay/sweep.hpp"
#include "serve/json.hpp"
#include "serve/lru_map.hpp"
#include "serve/memo.hpp"
#include "serve/scenario_build.hpp"
#include "serve/service.hpp"
#include "serve/trace_cache.hpp"
#include "support/error.hpp"
#include "trace/digest.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace_format.hpp"
#include "trace/trace_set.hpp"
#include "trace_formats.hpp"

using namespace tir;
using trace::TraceFormat;
namespace fs = std::filesystem;

namespace {

std::vector<std::vector<trace::Action>> ring_actions(int nprocs, int rounds) {
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> per(static_cast<std::size_t>(nprocs));
  for (int r = 0; r < rounds; ++r) {
    for (int p = 0; p < nprocs; ++p) {
      auto& mine = per[static_cast<std::size_t>(p)];
      if (p == 0) {
        mine.push_back({p, ActionType::compute, -1, 1e5, 0, 0});
        mine.push_back({p, ActionType::send, 1, 64 * 1024, 0, 0});
        mine.push_back({p, ActionType::recv, nprocs - 1, 0, 0, 0});
      } else {
        mine.push_back({p, ActionType::recv, (p + nprocs - 1) % nprocs,
                        0, 0, 0});
        mine.push_back({p, ActionType::compute, -1, 1e5, 0, 0});
        mine.push_back({p, ActionType::send, (p + 1) % nprocs,
                        64 * 1024, 0, 0});
      }
    }
  }
  return per;
}

/// Fresh scratch directory per test; removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag) {
    path = fs::temp_directory_path() /
           ("tir_service_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

bool bit_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

void write_text(const fs::path& path, const std::string& text) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
}

/// Writes `program` under dir/<sub> in `format`, one file per process,
/// returning the file list.
std::vector<fs::path> write_encoded(
    const fs::path& dir, TraceFormat format,
    const std::vector<std::vector<trace::Action>>& program) {
  fs::create_directories(dir);
  std::vector<fs::path> files;
  for (std::size_t p = 0; p < program.size(); ++p) {
    files.push_back(dir / ("SG_process" + std::to_string(p) + ".trace"));
    trace::write_trace(files.back(), program[p], static_cast<int>(p), format);
  }
  return files;
}

}  // namespace

// ---------------------------------------------------------------------------
// Digest

TEST(DigestTest, StableAcrossCodecsAndLayouts) {
  ScratchDir scratch("digest");
  const auto program = ring_actions(4, 3);

  const auto text = write_encoded(scratch.path / "text",
                                  TraceFormat::text, program);
  const auto binary = write_encoded(scratch.path / "bin",
                                    TraceFormat::binary, program);
  const auto compact =
      write_encoded(scratch.path / "comp", TraceFormat::compact, program);

  const auto d_mem = trace::digest(trace::TraceSet::in_memory(program));
  const auto d_text =
      trace::digest(trace::TraceSet::per_process_files(text));
  const auto d_bin =
      trace::digest(trace::TraceSet::per_process_files(binary));
  const auto d_comp =
      trace::digest(trace::TraceSet::per_process_files(compact));
  EXPECT_EQ(d_mem, d_text);
  EXPECT_EQ(d_mem, d_bin);
  EXPECT_EQ(d_mem, d_comp);

  // Merged layout (one file, per-record pids) names the same content.
  std::vector<trace::Action> merged;
  for (const auto& stream : program)
    merged.insert(merged.end(), stream.begin(), stream.end());
  const fs::path merged_file = scratch.path / "merged.trace";
  trace::write_trace(merged_file, merged, -1, TraceFormat::text);
  const auto d_merged = trace::digest(trace::TraceSet::merged_file(
      merged_file, static_cast<int>(program.size())));
  EXPECT_EQ(d_mem, d_merged);

  EXPECT_EQ(d_mem.hex().size(), 32u);
}

TEST(DigestTest, DistinguishesContentStreamAndOrder) {
  const auto program = ring_actions(4, 2);
  const auto base = trace::digest(trace::TraceSet::in_memory(program));

  auto tweaked = program;
  tweaked[2][1].volume += 1.0;  // one flop more on rank 2
  EXPECT_NE(base, trace::digest(trace::TraceSet::in_memory(tweaked)));

  auto swapped = program;
  std::swap(swapped[0], swapped[1]);  // same multiset, different ranks
  EXPECT_NE(base, trace::digest(trace::TraceSet::in_memory(swapped)));

  auto fewer = program;
  fewer.pop_back();
  EXPECT_NE(base, trace::digest(trace::TraceSet::in_memory(fewer)));
}

// ---------------------------------------------------------------------------
// TraceCache

TEST(TraceCacheTest, AliasHitServesWithoutLoaderAndSharesStorage) {
  serve::TraceCache cache;
  const auto program = ring_actions(2, 1);
  int loads = 0;
  const auto load = [&] {
    ++loads;
    return trace::TraceSet::in_memory(program);
  };

  const auto first = cache.get("k", load);
  EXPECT_FALSE(first.hit);
  EXPECT_EQ(loads, 1);
  EXPECT_GT(first.bytes, 0u);

  const auto second = cache.get("k", load);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(loads, 1);
  EXPECT_EQ(second.traces.actions(0).data(), first.traces.actions(0).data());

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(TraceCacheTest, LruEvictionRespectsByteBudget) {
  const auto one = ring_actions(2, 1);
  const std::uint64_t entry_bytes =
      trace::TraceSet::in_memory(one).resident_bytes();

  serve::TraceCacheOptions options;
  options.byte_budget = 2 * entry_bytes;  // room for two entries
  serve::TraceCache cache(options);

  // Three distinct contents (different volumes) under three keys.
  const auto load_variant = [&](double volume) {
    auto program = one;
    program[0][0].volume = volume;
    return trace::TraceSet::in_memory(program);
  };
  cache.get("a", [&] { return load_variant(1.0); });
  cache.get("b", [&] { return load_variant(2.0); });
  cache.get("c", [&] { return load_variant(3.0); });  // evicts LRU "a"

  auto stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.resident_bytes, options.byte_budget);

  // "a" was evicted: its loader runs again. "c" (most recent) is resident.
  int reloads = 0;
  const auto again = cache.get("a", [&] {
    ++reloads;
    return load_variant(1.0);
  });
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(reloads, 1);
  EXPECT_TRUE(cache.get("c", [&]() -> trace::TraceSet {
                     throw Error("loader must not run");
                   }).hit);
}

TEST(TraceCacheTest, OversizedEntryIsStillAdmitted) {
  serve::TraceCacheOptions options;
  options.byte_budget = 1;  // smaller than any real entry
  serve::TraceCache cache(options);
  const auto got = cache.get("big", [&] {
    return trace::TraceSet::in_memory(ring_actions(4, 4));
  });
  EXPECT_GT(got.bytes, 1u);
  EXPECT_TRUE(cache.get("big", [&]() -> trace::TraceSet {
                     throw Error("loader must not run");
                   }).hit);
}

TEST(TraceCacheTest, LoaderFailurePropagatesAndKeyRetries) {
  serve::TraceCache cache;
  int calls = 0;
  const auto failing = [&]() -> trace::TraceSet {
    ++calls;
    throw IoError("no such trace");
  };
  EXPECT_THROW(cache.get("k", failing), IoError);
  EXPECT_THROW(cache.get("k", failing), IoError);  // not negatively cached
  EXPECT_EQ(calls, 2);
  EXPECT_FALSE(cache.get("k", [&] {
                      return trace::TraceSet::in_memory(ring_actions(2, 1));
                    }).hit);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(TraceCacheTest, StreamedEntryAccountsIndexBytesAndDigestsIdentically) {
  // An index-backed streamed TraceSet is "decoded" for cache purposes —
  // digested, resident, hittable — but its byte footprint is the index,
  // not the actions, so a huge trace barely dents the budget.
  ScratchDir scratch("stream_cache");
  trace::SyntheticSpec spec;
  spec.nprocs = 4;
  spec.iterations = 5000;
  const auto files = trace::write_synthetic_traces(scratch.path, spec);

  serve::TraceCache cache;
  const auto streamed = cache.get("syn-streamed", [&] {
    return trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, trace::DecodePolicy::stream);
  });
  ASSERT_TRUE(streamed.traces.streaming());
  const std::uint64_t expanded =
      trace::synthetic_actions(spec) * sizeof(trace::Action);
  EXPECT_LT(streamed.bytes, expanded / 10);
  EXPECT_EQ(cache.stats().resident_bytes, streamed.bytes);

  // Same bytes materialised under another key: full decode, same digest,
  // an entry of its own.
  const auto materialised = cache.get("syn-materialised", [&] {
    return trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, trace::DecodePolicy::materialise);
  });
  EXPECT_EQ(materialised.digest, streamed.digest);
  EXPECT_FALSE(materialised.traces.streaming());
  EXPECT_EQ(cache.stats().entries, 2u);

  // Both keys now hit without running a loader.
  EXPECT_TRUE(cache.get("syn-streamed", [&]() -> trace::TraceSet {
                     throw Error("loader must not run");
                   }).hit);
  EXPECT_TRUE(cache.get("syn-materialised",
                        [&]() -> trace::TraceSet {
                          throw Error("loader must not run");
                        }).hit);
}

TEST(TraceCacheTest, ChurnMixesStreamedAndMaterialisedEntries) {
  // LRU churn over a mixed population: materialised entries carry real
  // byte weight and evict each other; index-backed streamed entries are
  // near-free and survive the same churn.
  ScratchDir scratch("stream_churn");
  trace::SyntheticSpec spec;
  spec.nprocs = 2;
  spec.iterations = 4000;
  const auto files = trace::write_synthetic_traces(scratch.path, spec);

  // Materialised entries big enough to dwarf a stream index's footprint.
  const auto one = ring_actions(2, 50);
  const std::uint64_t entry_bytes =
      trace::TraceSet::in_memory(one).resident_bytes();
  serve::TraceCacheOptions options;
  options.byte_budget = 2 * entry_bytes;
  serve::TraceCache cache(options);

  const auto load_variant = [&](double volume) {
    auto program = one;
    program[0][0].volume = volume;
    return trace::TraceSet::in_memory(program);
  };
  cache.get("mat_a", [&] { return load_variant(1.0); });
  const auto streamed = cache.get("stream_b", [&] {
    return trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, trace::DecodePolicy::stream);
  });
  ASSERT_TRUE(streamed.traces.streaming());
  ASSERT_LT(streamed.bytes, entry_bytes);
  cache.get("mat_c", [&] { return load_variant(3.0); });

  // mat_a (LRU) was evicted to fit mat_c; the streamed index rode out the
  // churn on its tiny footprint.
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.get("stream_b", [&]() -> trace::TraceSet {
                     throw Error("loader must not run");
                   }).hit);
  EXPECT_TRUE(cache.get("mat_c", [&]() -> trace::TraceSet {
                     throw Error("loader must not run");
                   }).hit);
  EXPECT_FALSE(cache.get("mat_a", [&] { return load_variant(1.0); }).hit);
}

namespace {

/// Replays `traces` block-deployed on a cluster of one host per process.
replay::ReplayReport replay_on_cluster(const trace::TraceSet& traces) {
  replay::ScenarioSpec spec;
  spec.name = "cached";
  spec.platform = std::make_shared<const plat::Platform>(plat::make_platform(
      "cluster:hosts=" + std::to_string(traces.nprocs())));
  spec.process_hosts =
      plat::resolve_deployment_spec("block", *spec.platform, traces.nprocs());
  spec.traces = traces;
  return replay::run_scenario_report(spec);
}

/// Moves `file`'s mtime 10 s on, leaving its bytes alone.
void touch(const fs::path& file) {
  fs::last_write_time(file,
                      fs::last_write_time(file) + std::chrono::seconds(10));
}

}  // namespace

TEST(TraceCacheTest, StreamedSetOnlyServesItsOwnSourcesAlias) {
  // Two encodings of one trace, both streamed, digest alike. Each key
  // must read its own files: once either copy is rewritten, the other
  // copy's key still replays.
  const std::map<std::string, TraceFormat> formats = {
      {"text", TraceFormat::text}, {"binary", TraceFormat::binary}};
  for (const auto& [changed, changed_format] : formats) {
    SCOPED_TRACE(changed + " rewritten");
    const std::string kept = changed == "text" ? "binary" : "text";
    ScratchDir scratch("stream_twins");
    std::map<std::string, std::vector<fs::path>> files;
    for (const auto& [name, format] : formats)
      files[name] = write_encoded(scratch.path / name, format,
                                  ring_actions(4, 2));
    const auto stream = [&files](const std::string& name) {
      return [&files, name] {
        return trace::TraceSet::per_process_files(
            files.at(name), trace::DecodeMode::strict,
            trace::DecodePolicy::stream);
      };
    };

    serve::TraceCache cache;
    const auto first = cache.get("text", stream("text"));
    const auto second = cache.get("binary", stream("binary"));
    ASSERT_TRUE(second.traces.streaming());
    EXPECT_EQ(second.digest, first.digest);

    // One more round in one copy: a new identity and a new digest.
    write_encoded(scratch.path / changed, changed_format, ring_actions(4, 3));
    EXPECT_NE(cache.get(changed + "-rewritten", stream(changed)).digest,
              first.digest);

    const auto again = cache.get(kept, stream(kept));
    EXPECT_EQ(again.digest, first.digest);
    const auto report = replay_on_cluster(again.traces);
    EXPECT_EQ(report.status, replay::ReplayStatus::ok) << report.error;
  }
}

// ---------------------------------------------------------------------------
// ResultMemo

TEST(ResultMemoTest, HitReturnsStoredReportBitForBit) {
  serve::ResultMemo memo;
  replay::ReplayReport report;
  report.status = replay::ReplayStatus::ok;
  report.sim_time = 0.1234567890123456789;
  report.coverage = 1.0;
  report.result.simulated_time = report.sim_time;
  memo.store("key", report);

  const auto found = memo.lookup("key");
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(std::memcmp(&found->sim_time, &report.sim_time,
                        sizeof report.sim_time),
            0);
  EXPECT_FALSE(memo.lookup("other").has_value());
}

TEST(ResultMemoTest, EntryCountLruEviction) {
  serve::MemoOptions options;
  options.capacity = 2;
  serve::ResultMemo memo(options);
  replay::ReplayReport report;
  memo.store("a", report);
  memo.store("b", report);
  memo.store("a", report);  // refresh "a"
  memo.store("c", report);  // evicts "b"
  EXPECT_TRUE(memo.lookup("a").has_value());
  EXPECT_FALSE(memo.lookup("b").has_value());
  EXPECT_TRUE(memo.lookup("c").has_value());
  EXPECT_EQ(memo.stats().evictions, 1u);
  EXPECT_EQ(memo.stats().entries, 2u);
}

TEST(ResultMemoTest, MemoKeyIgnoresNameButNotKnobs) {
  const auto platform_key = std::string("cluster:hosts=4");
  const trace::Digest digest{1, 2};

  replay::ScenarioSpec a;
  a.name = "first";
  a.process_hosts = {0, 1, 2, 3};
  replay::ScenarioSpec b = a;
  b.name = "renamed";
  EXPECT_EQ(serve::scenario_memo_key(a, platform_key, digest),
            serve::scenario_memo_key(b, platform_key, digest));

  // Recording is bit-identical by contract and a MemoAnswer keeps nothing
  // it selects, so the recording flags are not key material.
  replay::ScenarioSpec recorded = a;
  recorded.config.record_timed_trace = true;
  EXPECT_EQ(serve::scenario_memo_key(a, platform_key, digest),
            serve::scenario_memo_key(recorded, platform_key, digest));
  recorded.config.record_spans = true;
  EXPECT_EQ(serve::scenario_memo_key(a, platform_key, digest),
            serve::scenario_memo_key(recorded, platform_key, digest));
  recorded.config.span_activity_detail = true;
  EXPECT_EQ(serve::scenario_memo_key(a, platform_key, digest),
            serve::scenario_memo_key(recorded, platform_key, digest));

  // full_solve selects the reference solver, whose finish times may differ
  // from the incremental one's in the last digits: it stays in the key.
  replay::ScenarioSpec full = a;
  full.config.full_solve = true;
  EXPECT_NE(serve::scenario_memo_key(a, platform_key, digest),
            serve::scenario_memo_key(full, platform_key, digest));

  replay::ScenarioSpec c = a;
  c.config.compute_efficiency = 0.5;
  EXPECT_NE(serve::scenario_memo_key(a, platform_key, digest),
            serve::scenario_memo_key(c, platform_key, digest));

  replay::ScenarioSpec d = a;
  replay::FaultSpec fault;
  fault.kind = replay::FaultSpec::Kind::host;
  fault.target = "node-0";
  fault.at_time = 0.001;
  fault.compute_factor = 0.5;
  d.faults.push_back(fault);
  EXPECT_NE(serve::scenario_memo_key(a, platform_key, digest),
            serve::scenario_memo_key(d, platform_key, digest));

  EXPECT_NE(serve::scenario_memo_key(a, platform_key, digest),
            serve::scenario_memo_key(a, platform_key, trace::Digest{1, 3}));
  EXPECT_NE(serve::scenario_memo_key(a, platform_key, digest),
            serve::scenario_memo_key(a, "cluster:hosts=8", digest));
}

TEST(ScenarioBuildTest, U64FieldsRejectNegativeNumbers) {
  // stoull reads "-1" as 2^64 - 1; a seed or size must not wrap around.
  EXPECT_THROW(serve::parse_u64("seed", "-1"), ParseError);
  EXPECT_THROW(serve::parse_u64("seed", " -7"), ParseError);
  EXPECT_EQ(serve::parse_u64("seed", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(serve::parse_u64("--cache-bytes", "4294967296"), 1ull << 32);
}

// A key outside the sweep-list vocabulary is refused before any input is
// resolved, naming the key and the scenario: a typo must not replay as the
// baseline. replica= belongs to tir-serve, which strips it before the build.
TEST(ScenarioBuildTest, UnknownKeyIsAParseErrorNamingIt) {
  ScratchDir scratch("unknown_key");
  write_encoded(scratch.path / "ti", TraceFormat::text, ring_actions(4, 2));
  serve::TraceCache cache;
  serve::InputResolver resolver(scratch.path, cache);
  serve::KeyValues kv;
  kv.kv = {{"name", "typo"},
           {"platform", "cluster:hosts=4"},
           {"traces", "ti"},
           {"deployment", "block"}};

  // The retired engine knobs are still accepted, and ignored.
  serve::KeyValues retired = kv;
  retired.kv["fastpath"] = "on";
  retired.kv["shards"] = "4";
  retired.kv["decode"] = "stream";
  EXPECT_NO_THROW(serve::build_scenario(retired, resolver, 0));

  for (const std::string key : {"efficency", "replica"}) {
    SCOPED_TRACE(key);
    serve::KeyValues bad = kv;
    bad.kv[key] = "1";
    try {
      serve::build_scenario(bad, resolver, 0);
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("scenario 'typo'"), std::string::npos) << what;
      EXPECT_NE(what.find("unknown key '" + key + "'"), std::string::npos)
          << what;
    }
  }
  EXPECT_EQ(cache.stats().hits, 0u);  // refused before the traces resolved
}

// ---------------------------------------------------------------------------
// JSON protocol

TEST(JsonTest, ParsesEscapesNumbersAndNesting) {
  const auto v = serve::parse_json(
      "{\"s\":\"a\\n\\\"b\\u0041\",\"n\":-1.5e3,\"t\":true,"
      "\"arr\":[1,2],\"o\":{\"k\":null}}");
  ASSERT_EQ(v.type, serve::JsonValue::Type::object);
  EXPECT_EQ(v.find("s")->string, "a\n\"bA");
  EXPECT_EQ(v.find("n")->number, -1500.0);
  EXPECT_TRUE(v.find("t")->boolean);
  EXPECT_EQ(v.find("arr")->array.size(), 2u);
  EXPECT_EQ(v.find("o")->find("k")->type, serve::JsonValue::Type::null);

  // dump() round-trips through the parser.
  const auto again = serve::parse_json(v.dump());
  EXPECT_EQ(again.find("s")->string, "a\n\"bA");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(serve::parse_json("{\"a\":}"), ParseError);
  EXPECT_THROW(serve::parse_json("{\"a\":1} trailing"), ParseError);
  EXPECT_THROW(serve::parse_json("\"unterminated"), ParseError);
  EXPECT_THROW(serve::parse_json("{\"a\":1e999}"), ParseError);  // inf
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_THROW(serve::parse_json(deep), ParseError);
}

TEST(JsonTest, SurrogatePairDecodesToOneCodePoint) {
  // U+1F600 as a UTF-16 pair: one 4-byte UTF-8 sequence, not CESU-8.
  const auto v = serve::parse_json("\"\\ud83d\\ude00\"");
  EXPECT_EQ(v.string, "\xF0\x9F\x98\x80");
  // Upper-case hex digits and surrounding text decode the same way.
  EXPECT_EQ(serve::parse_json("\"a\\uD83D\\uDE00b\"").string,
            "a\xF0\x9F\x98\x80"
            "b");
}

TEST(JsonTest, RejectsLoneAndReversedSurrogates) {
  // Either would otherwise decode to bytes that are not UTF-8, and echoing
  // them back (an id) would produce an invalid JSON response.
  EXPECT_THROW(serve::parse_json("\"\\ud800\""), ParseError);
  EXPECT_THROW(serve::parse_json("\"\\udc00\""), ParseError);
  EXPECT_THROW(serve::parse_json("\"\\ud800x\""), ParseError);
  EXPECT_THROW(serve::parse_json("\"\\ude00\\ud83d\""), ParseError);
  EXPECT_THROW(serve::parse_json("\"\\ud800\\u0041\""), ParseError);
  EXPECT_THROW(serve::parse_json("\"\\ud800\\ud800\""), ParseError);
}

TEST(JsonTest, RejectsInvalidRawUtf8) {
  // Raw bytes are copied through only as well-formed UTF-8: a request id
  // is echoed back, and the response must stay valid JSON text.
  EXPECT_THROW(serve::parse_json("\"\x80\""), ParseError);  // stray
  EXPECT_THROW(serve::parse_json("\"\xC0\xAF\""), ParseError);  // overlong
  EXPECT_THROW(serve::parse_json("\"\xE2\x82\""), ParseError);  // truncated
  EXPECT_THROW(serve::parse_json("\"\xED\xA0\x80\""), ParseError);  // surrogate
  EXPECT_THROW(serve::parse_json("\"\xF4\x90\x80\x80\""),
               ParseError);  // above U+10FFFF
  EXPECT_THROW(serve::parse_json("{\"\xE2\x82\":1}"), ParseError);  // in a key

  // Well-formed 3- and 4-byte sequences survive parse -> dump -> parse.
  for (const std::string text : {"\xE2\x82\xAC", "a\xF0\x9F\x98\x80z"}) {
    const auto v = serve::parse_json("\"" + text + "\"");
    EXPECT_EQ(v.string, text);
    EXPECT_EQ(serve::parse_json(v.dump()).string, text);
  }
}

TEST(ProtocolTest, RequestLineRoundTrip) {
  const auto request = serve::parse_request_line(
      "{\"id\":\"r7\",\"platform\":\"cluster:hosts=4\",\"eager\":65536,"
      "\"efficiency\":0.5,\"flag\":true}");
  EXPECT_EQ(request.id, "r7");
  EXPECT_EQ(request.params.at("platform"), "cluster:hosts=4");
  EXPECT_EQ(request.params.at("eager"), "65536");  // integral, no exponent
  EXPECT_EQ(request.params.at("efficiency"), "0.5");
  EXPECT_EQ(request.params.at("flag"), "on");

  EXPECT_THROW(serve::parse_request_line("[1,2]"), ParseError);
  EXPECT_THROW(serve::parse_request_line("{\"a\":[1]}"), ParseError);
}

TEST(ProtocolTest, ResponseRendersAsParseableJsonLine) {
  serve::Response response;
  response.id = "x\"y";  // must be escaped
  response.status = serve::Response::Status::ok;
  response.name = "s";
  response.sim_time = 0.039482748695652183;
  response.coverage = 1.0;
  response.actions_replayed = 12;
  response.processes = 4;
  response.trace_digest = "deadbeef";
  response.memo_hit = true;

  const std::string line = serve::render_response(response);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto v = serve::parse_json(line);
  EXPECT_EQ(v.find("id")->string, "x\"y");
  EXPECT_EQ(v.find("status")->string, "ok");
  // %.17g keeps the double exact through the text round trip.
  const double parsed = v.find("sim_time")->number;
  EXPECT_EQ(std::memcmp(&parsed, &response.sim_time, sizeof parsed), 0);
  EXPECT_EQ(v.find("cache")->find("memo")->string, "hit");
}

// ---------------------------------------------------------------------------
// obs::Histogram

TEST(MetricsTest, HistogramPercentilesAndSummary)
{
  obs::Histogram h;
  for (int i = 0; i < 100; ++i) h.record(1e-3);  // 1 ms
  h.record(2.0);
  EXPECT_EQ(h.count(), 101u);
  EXPECT_EQ(h.max(), 2.0);
  EXPECT_LE(h.percentile(0.5), 2e-3);  // bucket upper bound of 1 ms
  EXPECT_EQ(h.percentile(1.0), 2.0);
  EXPECT_NE(h.summary().find("n=101"), std::string::npos);

  obs::Histogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_EQ(empty.percentile(0.99), 0.0);
}

// Two hit paths whose latencies sit in one octave (9.6 and 15.4 us: both
// read p50 = 16 us from power-of-two buckets) must report apart, each p50
// at most 12.5% above the truth. One slow sample per histogram is the tail
// a real latency histogram has; it keeps max() from clamping the answer.
TEST(MetricsTest, HistogramSeparatesLatenciesWithinAnOctave) {
  const auto p50_of = [](double seconds) {
    obs::Histogram h;
    for (int i = 0; i < 3000; ++i) h.record(seconds);
    h.record(2e-3);
    return h.percentile(0.5);
  };
  const double fast = p50_of(9.6e-6);
  const double slow = p50_of(15.4e-6);
  EXPECT_NE(fast, slow);
  EXPECT_GE(fast, 9.6e-6);
  EXPECT_LE(fast, 1.125 * 9.6e-6);
  EXPECT_GE(slow, 15.4e-6);
  EXPECT_LE(slow, 1.125 * 15.4e-6);
}

// ---------------------------------------------------------------------------
// InputResolver

TEST(InputResolverTest, PathSpellingsShareOneDecode) {
  ScratchDir scratch("resolver");
  const auto program = ring_actions(4, 2);
  write_encoded(scratch.path / "ti", TraceFormat::text, program);
  fs::create_directory_symlink("ti", scratch.path / "link");

  serve::TraceCache cache;
  serve::InputResolver resolver(scratch.path, cache);
  const auto a = resolver.traces("ti", /*merged=*/false);
  EXPECT_FALSE(a.hit);
  for (const std::string& spelling : std::vector<std::string>{
           "./ti", "ti/", fs::absolute(scratch.path / "ti").string(), "link",
           "./link/",
           "ti/SG_process0.trace,link/SG_process1.trace,"
           "ti/SG_process2.trace,ti/SG_process3.trace"}) {
    SCOPED_TRACE(spelling);
    const auto b = resolver.traces(spelling, /*merged=*/false);
    EXPECT_TRUE(b.hit);
    EXPECT_EQ(a.traces.actions(0).data(), b.traces.actions(0).data());
  }
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(InputResolverTest, RewrittenFileDropsItsAliasAndDecodesAgain) {
  ScratchDir scratch("resolver_rewrite");
  write_encoded(scratch.path / "ti", TraceFormat::text, ring_actions(4, 2));
  serve::TraceCache cache;
  serve::InputResolver resolver(scratch.path, cache);
  const auto before = resolver.traces("ti", /*merged=*/false);
  EXPECT_TRUE(resolver.traces("ti", /*merged=*/false).hit);

  // One more round on every rank: each file grows.
  write_encoded(scratch.path / "ti", TraceFormat::text, ring_actions(4, 3));
  const auto after = resolver.traces("./ti", /*merged=*/false);
  EXPECT_FALSE(after.hit);
  EXPECT_NE(after.digest, before.digest);
  EXPECT_EQ(after.traces.action_count(0), 9u);
  EXPECT_TRUE(resolver.traces("ti", /*merged=*/false).hit);
  // The old entry went with its identity: only the new decode is resident.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.resident_bytes, after.bytes);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(InputResolverTest, TouchedStreamedTraceStillReplays) {
  // Two ranks of compute loops expand past kAutoStreamActions, so the
  // resolver's automatic policy streams them from a few bytes on disk.
  ScratchDir scratch("resolver_touch_stream");
  const fs::path dir = scratch.path / "big";
  fs::create_directories(dir);
  const auto per_rank =
      static_cast<std::uint32_t>(trace::kAutoStreamActions / 2 + 1);
  for (int pid = 0; pid < 2; ++pid) {
    const trace::CompactProgram program = {
        {per_rank, {{pid, trace::ActionType::compute, -1, 1e3, 0, 0}}}};
    trace::write_trace(dir / ("SG_process" + std::to_string(pid) + ".trace"),
                       program, pid, TraceFormat::compact);
  }
  serve::TraceCache cache;
  serve::InputResolver resolver(scratch.path, cache);
  const auto before = resolver.traces("big", /*merged=*/false);
  ASSERT_TRUE(before.traces.streaming());

  touch(dir / "SG_process1.trace");
  const auto after = resolver.traces("big", /*merged=*/false);
  EXPECT_FALSE(after.hit);
  EXPECT_EQ(after.digest, before.digest);
  // Both spellings now read through an index of the files as they are.
  for (const auto& set :
       {after.traces, resolver.traces("./big/", /*merged=*/false).traces}) {
    for (int pid = 0; pid < 2; ++pid) {
      const auto source = set.open(pid);
      const auto first = source->next();
      ASSERT_TRUE(first.has_value());
      EXPECT_EQ(first->type, trace::ActionType::compute);
    }
  }
}

TEST(LruMapTest, HoldsAtMostItsCapacity) {
  serve::LruMap<int> map(2);
  map.put("a", 1);
  map.put("b", 2);
  ASSERT_NE(map.find("a"), nullptr);  // "a" is now the most recent
  map.put("c", 3);                    // evicts "b"
  EXPECT_EQ(map.find("b"), nullptr);
  ASSERT_NE(map.find("a"), nullptr);
  EXPECT_EQ(*map.find("a"), 1);
  map.put("a", 4);  // replaces in place
  EXPECT_EQ(*map.find("a"), 4);
  map.erase("a");
  EXPECT_EQ(map.find("a"), nullptr);
  // A client cycling spellings keeps the map at its cap.
  for (int i = 0; i < 1000; ++i) map.put("spelling-" + std::to_string(i), i);
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(*map.find("spelling-999"), 999);
}

TEST(LruMapTest, WeightsBoundTheTotal) {
  serve::LruMap<int> map(10);
  map.put("a", 1, 4);
  map.put("b", 2, 4);
  EXPECT_EQ(map.weight(), 8u);

  // Heavier than the whole capacity: admitted alone, the rest evicted.
  map.put("big", 3, 25);
  EXPECT_EQ(map.size(), 1u);
  ASSERT_NE(map.find("big"), nullptr);
  EXPECT_EQ(map.weight(), 25u);
  EXPECT_EQ(map.evictions(), 2u);
  // ...and evicted once a newer entry lands.
  map.put("c", 4, 3);
  EXPECT_EQ(map.find("big"), nullptr);
  EXPECT_EQ(map.weight(), 3u);

  // Replacing a key re-weighs it: "c" grows from 3 to 6, "d" at 4 fills
  // the capacity exactly, and re-weighing "d" to 5 pushes the total past
  // it, so the colder "c" goes.
  map.put("c", 5, 6);
  EXPECT_EQ(map.weight(), 6u);
  EXPECT_EQ(*map.find("c"), 5);
  map.put("d", 6, 4);
  EXPECT_EQ(map.weight(), 10u);
  map.put("d", 7, 5);
  EXPECT_EQ(map.find("c"), nullptr);
  EXPECT_EQ(map.weight(), 5u);
  map.erase("d");
  EXPECT_EQ(map.weight(), 0u);
  EXPECT_EQ(map.size(), 0u);
}

TEST(InputResolverTest, EmptyTraceDirectoryIsAnIoErrorNamingIt) {
  ScratchDir scratch("emptydir");
  fs::create_directories(scratch.path / "no_traces_here");
  serve::TraceCache cache;
  serve::InputResolver resolver(scratch.path, cache);
  try {
    resolver.traces("no_traces_here", /*merged=*/false);
    FAIL() << "expected an IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("no_traces_here"),
              std::string::npos)
        << e.what();
  }
}

TEST(InputResolverTest, UnreadableTraceFallsBackToLazyUncached) {
  ScratchDir scratch("badtrace");
  serve::TraceCache cache;
  serve::InputResolver resolver(scratch.path, cache);
  // The directory has no SG_process files: the eager decode fails, the
  // resolver returns a lazy TraceSet with a zero digest, and the failure
  // surfaces at replay time (per-row semantics, not a parse-time abort).
  const auto got = resolver.traces("nope.trace", /*merged=*/false);
  EXPECT_FALSE(got.hit);
  EXPECT_EQ(got.digest, trace::Digest{});
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// ReplayService end to end

namespace {

/// A service over freshly written trace files plus a cold-path resolver to
/// compute reference reports through the identical build path.
struct ServiceFixture {
  ScratchDir scratch{"svc"};
  std::map<std::string, std::string> base_params;

  explicit ServiceFixture(int nprocs = 4, int rounds = 3) {
    write_encoded(scratch.path / "ti", TraceFormat::text,
                  ring_actions(nprocs, rounds));
    base_params = {{"platform", "cluster:hosts=" + std::to_string(nprocs)},
                   {"traces", "ti"},
                   {"deployment", "block"}};
  }

  serve::ServiceOptions options() const {
    serve::ServiceOptions o;
    o.base_dir = scratch.path.string();
    o.workers = 2;
    return o;
  }

  /// The same KeyValues (without replica=) through serve::build_scenario,
  /// bypassing every cache.
  serve::SweepEntry entry(const std::map<std::string, std::string>& params) {
    serve::TraceCache cache;
    serve::InputResolver resolver(scratch.path, cache);
    serve::KeyValues kv;
    kv.kv = params;
    kv.kv.erase("replica");
    return serve::build_scenario(kv, resolver, 0);
  }

  /// Cold reference: entry(params), or its replica when it is perturbed,
  /// through a direct run_scenario_report.
  replay::ReplayReport cold(
      const std::map<std::string, std::string>& params, int replica = 0) {
    const serve::SweepEntry built = entry(params);
    return replay::run_scenario_report(
        built.perturb.empty()
            ? built.spec
            : replay::perturbed_replica(built.spec, built.perturb, built.seed,
                                        static_cast<std::uint64_t>(replica)));
  }
};

}  // namespace

TEST(ReplayServiceTest, MemoHitIsBitIdenticalToColdRun) {
  ServiceFixture fixture;
  serve::ReplayService service(fixture.options());

  serve::Request request;
  request.id = "a";
  request.params = fixture.base_params;
  request.params["efficiency"] = "0.7";

  const auto first = service.run(request);
  ASSERT_EQ(first.status, serve::Response::Status::ok) << first.error;
  EXPECT_FALSE(first.memo_hit);

  request.id = "b";
  const auto second = service.run(request);
  ASSERT_EQ(second.status, serve::Response::Status::ok) << second.error;
  EXPECT_TRUE(second.memo_hit);
  EXPECT_EQ(std::memcmp(&second.sim_time, &first.sim_time,
                        sizeof first.sim_time),
            0);

  const auto reference = fixture.cold(request.params);
  ASSERT_EQ(reference.status, replay::ReplayStatus::ok);
  EXPECT_EQ(std::memcmp(&second.sim_time, &reference.sim_time,
                        sizeof reference.sim_time),
            0);
  EXPECT_EQ(second.actions_replayed, reference.result.actions_replayed);
}

TEST(ReplayServiceTest, FaultScenarioMemoisesBitIdentically) {
  ServiceFixture fixture;
  serve::ReplayService service(fixture.options());

  serve::Request request;
  request.id = "f1";
  request.params = fixture.base_params;
  request.params["fault"] = "host:node-0:0.5@0.0005";

  const auto first = service.run(request);
  ASSERT_EQ(first.status, serve::Response::Status::ok) << first.error;
  request.id = "f2";
  const auto second = service.run(request);
  EXPECT_TRUE(second.memo_hit);

  const auto reference = fixture.cold(request.params);
  EXPECT_EQ(std::memcmp(&second.sim_time, &reference.sim_time,
                        sizeof reference.sim_time),
            0);

  // A different fault is a different key.
  request.id = "f3";
  request.params["fault"] = "host:node-0:0.25@0.0005";
  const auto third = service.run(request);
  EXPECT_FALSE(third.memo_hit);
  EXPECT_NE(third.sim_time, second.sim_time);
}

TEST(ReplayServiceTest, PerturbedReplicaMemoisesBitIdentically) {
  ServiceFixture fixture;
  serve::ReplayService service(fixture.options());

  serve::Request request;
  request.id = "p1";
  request.params = fixture.base_params;
  request.params["perturb"] = "hostnoise:0.05";
  request.params["seed"] = "7";
  request.params["replica"] = "3";

  const auto first = service.run(request);
  ASSERT_EQ(first.status, serve::Response::Status::ok) << first.error;
  EXPECT_NE(first.name.find("#r3"), std::string::npos);
  request.id = "p2";
  const auto second = service.run(request);
  EXPECT_TRUE(second.memo_hit);

  const auto reference = fixture.cold(request.params, /*replica=*/3);
  EXPECT_EQ(std::memcmp(&second.sim_time, &reference.sim_time,
                        sizeof reference.sim_time),
            0);

  // Another replica of the same row is a different scenario.
  request.id = "p3";
  request.params["replica"] = "4";
  EXPECT_FALSE(service.run(request).memo_hit);
}

// One replica expansion behind every front end: replica 3 of a perturbed
// row replays bit-identically as run_monte_carlo's samples[3], the sweep's
// name#r3 row and the service's replica=3 answer.
TEST(ReplayServiceTest, ReplicaReadsTheSameThroughEveryFrontEnd) {
  ServiceFixture fixture;
  auto params = fixture.base_params;
  params["name"] = "row";
  params["perturb"] = "hostnoise:0.05,bwnoise:0.02";
  params["seed"] = "7";

  auto mc_params = params;
  mc_params["mc"] = "6";
  const serve::SweepEntry entry = fixture.entry(mc_params);
  const auto rows = serve::sweep_rows(entry);
  ASSERT_EQ(rows.size(), 7u);
  ASSERT_EQ(rows[3].name, "row#r3");
  EXPECT_EQ(rows.back().name, "row#baseline");
  const auto swept = replay::run_sweep(rows, {.workers = 2});
  ASSERT_TRUE(swept[3].ok()) << swept[3].error;

  const replay::McSummary summary = replay::run_monte_carlo(
      entry.spec, entry.perturb,
      {.replicas = 6, .seed = entry.seed, .workers = 2});
  ASSERT_EQ(summary.failures, 0);
  ASSERT_EQ(summary.samples.size(), 6u);

  serve::ReplayService service(fixture.options());
  serve::Request request;
  request.id = "r3";
  request.params = params;
  request.params["replica"] = "3";
  const auto served = service.run(request);
  ASSERT_EQ(served.status, serve::Response::Status::ok) << served.error;
  EXPECT_EQ(served.name, "row#r3");

  const double sweep_time = swept[3].result.simulated_time;
  EXPECT_EQ(std::memcmp(&summary.samples[3], &sweep_time, sizeof sweep_time),
            0);
  EXPECT_EQ(std::memcmp(&served.sim_time, &sweep_time, sizeof sweep_time), 0);
  // The replicas differ from each other and from the unperturbed baseline.
  EXPECT_NE(summary.samples[3], summary.samples[2]);
  EXPECT_NE(sweep_time, swept.back().result.simulated_time);
  EXPECT_EQ(summary.baseline, swept.back().result.simulated_time);
}

TEST(ReplayServiceTest, ReplicaWithoutPerturbationIsABadRequest) {
  ServiceFixture fixture;
  serve::ReplayService service(fixture.options());

  // Replica 0 of a deterministic row is the row itself.
  serve::Request request;
  request.id = "r0";
  request.params = fixture.base_params;
  request.params["replica"] = "0";
  const auto plain = service.run(request);
  ASSERT_EQ(plain.status, serve::Response::Status::ok) << plain.error;
  const auto reference = fixture.cold(request.params);
  EXPECT_EQ(std::memcmp(&plain.sim_time, &reference.sim_time,
                        sizeof reference.sim_time),
            0);

  // Refused after its build: the answer still reports the trace lookup
  // that stats() counts.
  request.id = "r1";
  request.params["replica"] = "1";
  const auto response = service.run(request);
  EXPECT_EQ(response.status, serve::Response::Status::badrequest);
  EXPECT_NE(response.error.find("without a perturbation"), std::string::npos)
      << response.error;
  EXPECT_TRUE(response.trace_hit);
  EXPECT_EQ(response.trace_digest, plain.trace_digest);
  EXPECT_FALSE(response.trace_digest.empty());
  EXPECT_EQ(service.stats().trace_cache.hits, 1u);
}

// A non-positive efficiency is refused when the request is built, not
// mid-replay: a `failed` answer is never memoised, so each repeat would
// decode the trace and build an engine again.
TEST(ReplayServiceTest, NonPositiveEfficiencyIsABadRequest) {
  ServiceFixture fixture;
  serve::ReplayService service(fixture.options());

  for (const char* efficiency : {"0", "-1"}) {
    serve::Request request;
    request.id = efficiency;
    request.params = fixture.base_params;
    request.params["efficiency"] = efficiency;
    const auto response = service.run(request);
    EXPECT_EQ(response.status, serve::Response::Status::badrequest)
        << efficiency;
    EXPECT_NE(response.error.find("efficiency"), std::string::npos)
        << response.error;
  }
  EXPECT_EQ(service.stats().replays, 0u);
}

TEST(ReplayServiceTest, CrossEncodingRequestsHitOneMemoEntry) {
  ServiceFixture fixture;
  const auto program = ring_actions(4, 3);
  write_encoded(fixture.scratch.path / "ti_compact", TraceFormat::compact,
                program);

  serve::ReplayService service(fixture.options());
  serve::Request request;
  request.id = "text";
  request.params = fixture.base_params;
  const auto first = service.run(request);
  ASSERT_EQ(first.status, serve::Response::Status::ok) << first.error;

  // Same logical trace, different encoding and directory: the content
  // digest unifies the memo key, so this is a hit without a replay.
  request.id = "compact";
  request.params["traces"] = "ti_compact";
  const auto second = service.run(request);
  ASSERT_EQ(second.status, serve::Response::Status::ok) << second.error;
  EXPECT_TRUE(second.memo_hit);
  EXPECT_EQ(second.trace_digest, first.trace_digest);
  EXPECT_EQ(std::memcmp(&second.sim_time, &first.sim_time,
                        sizeof first.sim_time),
            0);
  EXPECT_EQ(service.stats().replays, 1u);
}

TEST(ReplayServiceTest, FormerEngineKnobSpellingsHitTheMemo) {
  // fastpath= and shards= once selected engine schedules, and decode= a
  // trace decode path, all with identical answers; lists that still carry
  // them run as if the keys were absent and share the memo entry of the
  // plain request.
  ServiceFixture fixture;
  serve::ReplayService service(fixture.options());
  serve::Request plain;
  plain.id = "plain";
  plain.params = fixture.base_params;
  const auto first = service.run(plain);
  ASSERT_EQ(first.status, serve::Response::Status::ok) << first.error;

  const std::vector<std::map<std::string, std::string>> former_keys = {
      {{"fastpath", "on"}, {"shards", "4"}},
      {{"decode", "stream"}},
      {{"decode", "materialise"}},
  };
  for (const auto& keys : former_keys) {
    serve::Request former = plain;
    former.id = "former-" + keys.begin()->second;
    for (const auto& [key, value] : keys) former.params[key] = value;
    const auto again = service.run(former);
    ASSERT_EQ(again.status, serve::Response::Status::ok) << again.error;
    EXPECT_EQ(std::memcmp(&again.sim_time, &first.sim_time,
                          sizeof first.sim_time),
              0)
        << former.id;
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.replays, 1u);
  EXPECT_EQ(stats.memo_hits + stats.batch_dedups, former_keys.size());
}

TEST(ReplayServiceTest, IdenticalConcurrentRequestsSimulateOnce) {
  ServiceFixture fixture;
  serve::ReplayService service(fixture.options());

  constexpr int kRequests = 24;
  std::mutex mu;
  std::vector<serve::Response> responses;
  int accepted = 0;
  for (int i = 0; i < kRequests; ++i) {
    serve::Request request;
    request.id = std::to_string(i);
    request.params = fixture.base_params;
    if (service.submit(std::move(request), [&](serve::Response response) {
          std::lock_guard<std::mutex> lock(mu);
          responses.push_back(std::move(response));
        }))
      ++accepted;
  }
  service.drain();

  ASSERT_EQ(static_cast<int>(responses.size()), accepted);
  ASSERT_GT(accepted, 0);
  for (const auto& response : responses) {
    ASSERT_EQ(response.status, serve::Response::Status::ok) << response.error;
    EXPECT_EQ(std::memcmp(&response.sim_time, &responses[0].sim_time,
                          sizeof response.sim_time),
              0);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.replays, 1u);  // one simulation answered them all
  EXPECT_EQ(stats.memo_hits + stats.batch_dedups,
            static_cast<std::uint64_t>(accepted - 1));
}

TEST(ReplayServiceTest, BadRequestIsIsolatedFromItsBatch) {
  ServiceFixture fixture;
  serve::ReplayService service(fixture.options());

  serve::Request good;
  good.id = "good";
  good.params = fixture.base_params;
  serve::Request bad;
  bad.id = "bad";
  bad.params = fixture.base_params;
  bad.params["collectives"] = "bogus";  // validated at build time
  serve::Request bad_mc;
  bad_mc.id = "mc";
  bad_mc.params = fixture.base_params;
  bad_mc.params["mc"] = "8";  // aggregation is tir-mc's job

  const auto r_bad = service.run(bad);
  EXPECT_EQ(r_bad.status, serve::Response::Status::badrequest);
  EXPECT_NE(r_bad.error.find("collectives"), std::string::npos);
  const auto r_mc = service.run(bad_mc);
  EXPECT_EQ(r_mc.status, serve::Response::Status::badrequest);
  const auto r_good = service.run(good);
  EXPECT_EQ(r_good.status, serve::Response::Status::ok) << r_good.error;
}

TEST(ReplayServiceTest, OverloadShedsWithDistinctStatus) {
  ServiceFixture fixture(4, 64);  // heavier rows: replays take real time
  auto options = fixture.options();
  // The limit counts every request accepted and not yet answered, including
  // the ones waiting on a replay, so one busy worker fills it at once.
  options.queue_limit = 2;
  options.workers = 1;
  serve::ReplayService service(options);

  constexpr int kRequests = 64;
  std::array<std::atomic<int>, kRequests> calls{};
  std::array<serve::Response, kRequests> answers;
  std::array<bool, kRequests> accepted{};
  for (int i = 0; i < kRequests; ++i) {
    serve::Request request;
    request.id = std::to_string(i);
    request.params = fixture.base_params;
    // Distinct scenarios (no memo shortcut): each must actually replay.
    request.params["efficiency"] = std::to_string(0.5 + 0.001 * i);
    const auto k = static_cast<std::size_t>(i);
    accepted[k] = service.submit(
        std::move(request), [&calls, &answers, k](serve::Response response) {
          answers[k] = std::move(response);
          calls[k].fetch_add(1);
        });
  }
  service.drain();

  // Admission control kept the backlog bounded: with 2 slots and
  // millisecond replays, a tight 64-request loop must shed. A shed request
  // is answered `overloaded` through its callback before submit() returns.
  int shed = 0;
  for (std::size_t k = 0; k < kRequests; ++k) {
    SCOPED_TRACE(k);
    EXPECT_EQ(calls[k].load(), 1);
    if (accepted[k]) {
      EXPECT_EQ(answers[k].status, serve::Response::Status::ok)
          << answers[k].error;
      continue;
    }
    ++shed;
    EXPECT_EQ(answers[k].status, serve::Response::Status::overloaded);
    EXPECT_EQ(answers[k].id, std::to_string(k));
    EXPECT_NE(answers[k].error.find("limit 2"), std::string::npos)
        << answers[k].error;
  }
  EXPECT_GT(shed, 0);
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(kRequests - shed));
  EXPECT_LE(stats.max_queue_depth, 2u);
  EXPECT_EQ(serve::to_string(serve::Response::Status::overloaded),
            "overloaded");
}

// A memo hit is answered on the submitting thread, before submit()
// returns: no hand-off to another thread.
TEST(ReplayServiceTest, HitIsAnsweredInsideSubmit) {
  ServiceFixture fixture;
  serve::ReplayService service(fixture.options());
  serve::Request request;
  request.id = "warm";
  request.params = fixture.base_params;
  ASSERT_EQ(service.run(request).status, serve::Response::Status::ok);

  request.id = "hit";
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> answered{false};
  std::atomic<bool> on_caller{false};
  std::atomic<bool> memo_hit{false};
  ASSERT_TRUE(service.submit(request, [&](serve::Response response) {
    on_caller = std::this_thread::get_id() == caller;
    memo_hit = response.memo_hit;
    answered = true;
  }));
  EXPECT_TRUE(answered.load());
  EXPECT_TRUE(on_caller.load());
  EXPECT_TRUE(memo_hit.load());
  service.drain();
}

// Client threads build concurrently under the service's build lock: every
// spelling of one directory shares a decode, every scenario replays once,
// and every answer is the cold replay bit-for-bit.
TEST(ReplayServiceTest, ConcurrentSubmittersReplayEachScenarioOnce) {
  ServiceFixture fixture;
  const std::vector<std::string> efficiencies = {"0.5", "0.6", "0.7", "0.8",
                                                 "0.9"};
  const std::vector<std::string> spellings = {
      "ti", "./ti/",
      "ti/SG_process0.trace,ti/SG_process1.trace,ti/SG_process2.trace,"
      "ti/SG_process3.trace"};
  std::vector<double> cold;
  for (const std::string& efficiency : efficiencies) {
    auto params = fixture.base_params;
    params["efficiency"] = efficiency;
    const auto reference = fixture.cold(params);
    ASSERT_EQ(reference.status, replay::ReplayStatus::ok) << reference.error;
    cold.push_back(reference.sim_time);
  }

  serve::ReplayService service(fixture.options());
  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::mutex mu;
  std::map<std::string, serve::Response> answers;
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t)
    clients.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int n = t * kPerThread + i;
        serve::Request request;
        request.id = std::to_string(n);
        request.params = fixture.base_params;
        request.params["efficiency"] = efficiencies[n % efficiencies.size()];
        request.params["traces"] =
            spellings[(n / efficiencies.size()) % spellings.size()];
        EXPECT_TRUE(service.submit(
            std::move(request), [&](serve::Response response) {
              std::lock_guard<std::mutex> lock(mu);
              const std::string id = response.id;
              EXPECT_TRUE(answers.emplace(id, std::move(response)).second);
            }));
      }
    });
  for (std::thread& client : clients) client.join();
  service.drain();

  ASSERT_EQ(answers.size(), static_cast<std::size_t>(kThreads * kPerThread));
  for (const auto& [id, response] : answers) {
    SCOPED_TRACE(id);
    ASSERT_EQ(response.status, serve::Response::Status::ok) << response.error;
    EXPECT_TRUE(bit_equal(response.sim_time,
                          cold[std::stoul(id) % efficiencies.size()]));
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.replays, efficiencies.size());
  EXPECT_EQ(stats.trace_cache.misses, 1u);
  EXPECT_EQ(stats.memo_hits + stats.batch_dedups,
            static_cast<std::uint64_t>(kThreads * kPerThread) -
                efficiencies.size());
}

TEST(ReplayServiceTest, HitIsNotQueuedBehindARunningMiss) {
  ServiceFixture fixture;
  trace::SyntheticSpec heavy;
  heavy.nprocs = 16;
  heavy.iterations = 2000;  // replays for well over 100 ms
  trace::write_synthetic_traces(fixture.scratch.path / "cg", heavy);

  auto options = fixture.options();
  options.workers = 1;
  serve::ReplayService service(options);
  serve::Request light;
  light.id = "light";
  light.params = fixture.base_params;
  ASSERT_EQ(service.run(light).status, serve::Response::Status::ok);

  serve::Request miss;
  miss.id = "heavy";
  miss.params = {{"platform", "cluster:hosts=16"},
                 {"traces", "cg"},
                 {"deployment", "block"}};
  std::atomic<bool> miss_answered{false};
  serve::Response miss_response;
  ASSERT_TRUE(service.submit(miss, [&](serve::Response response) {
    miss_response = std::move(response);
    miss_answered = true;
  }));

  // The only worker is busy with the heavy replay; the memoised request is
  // still answered on arrival, inside its own submit().
  light.id = "light-again";
  const auto hit = service.run(light);
  EXPECT_TRUE(hit.memo_hit);
  EXPECT_FALSE(miss_answered.load());

  service.drain();
  ASSERT_TRUE(miss_answered.load());
  EXPECT_EQ(miss_response.status, serve::Response::Status::ok)
      << miss_response.error;
  EXPECT_EQ(miss_response.actions_replayed, trace::synthetic_actions(heavy));
}

TEST(ReplayServiceTest, DestructorAnswersEveryAcceptedRequest) {
  ServiceFixture fixture(4, 64);
  constexpr int kRequests = 8;
  std::array<std::atomic<int>, kRequests> calls{};
  std::array<bool, kRequests> accepted{};
  {
    auto options = fixture.options();
    options.workers = 2;
    serve::ReplayService service(options);
    for (int i = 0; i < kRequests; ++i) {
      serve::Request request;
      request.id = std::to_string(i);
      request.params = fixture.base_params;
      request.params["efficiency"] = std::to_string(0.5 + 0.01 * i);
      accepted[static_cast<std::size_t>(i)] =
          service.submit(std::move(request), [&calls, i](serve::Response) {
            calls[static_cast<std::size_t>(i)].fetch_add(1);
          });
    }
  }  // destroyed with replays queued and running; no drain()
  for (int i = 0; i < kRequests; ++i) {
    const auto k = static_cast<std::size_t>(i);
    EXPECT_TRUE(accepted[k]);
    EXPECT_EQ(calls[k].load(), accepted[k] ? 1 : 0) << "request " << i;
  }
}

TEST(ReplayServiceTest, DeadlockReportsMemoiseLikeSuccesses) {
  ScratchDir scratch{"deadlock"};
  // Rank 0 waits for a message nobody sends: a deterministic deadlock.
  std::vector<std::vector<trace::Action>> program(2);
  program[0].push_back({0, trace::ActionType::recv, 1, 0, 0, 0});
  program[1].push_back({1, trace::ActionType::compute, -1, 1e5, 0, 0});
  write_encoded(scratch.path / "ti", TraceFormat::text, program);

  serve::ServiceOptions options;
  options.base_dir = scratch.path.string();
  serve::ReplayService service(options);

  serve::Request request;
  request.id = "d1";
  request.params = {{"platform", "cluster:hosts=2"},
                    {"traces", "ti"},
                    {"deployment", "block"}};
  const auto first = service.run(request);
  ASSERT_EQ(first.status, serve::Response::Status::deadlock);
  EXPECT_FALSE(first.diagnostics.empty());

  request.id = "d2";
  const auto second = service.run(request);
  EXPECT_EQ(second.status, serve::Response::Status::deadlock);
  EXPECT_TRUE(second.memo_hit);
  EXPECT_EQ(std::memcmp(&second.sim_time, &first.sim_time,
                        sizeof first.sim_time),
            0);
  EXPECT_EQ(second.diagnostics, first.diagnostics);
}

TEST(ReplayServiceTest, RewrittenTracesMissTheMemoAndMatchAFreshReplay) {
  ServiceFixture fixture;
  trace::SyntheticSpec cg;
  cg.nprocs = 8;
  cg.iterations = 20;  // 808 actions
  // Text: ten times the iterations changes every file's size, so the
  // rewrite shows whatever the filesystem's mtime granularity.
  trace::write_synthetic_traces(fixture.scratch.path / "tr", cg, "text");

  serve::ReplayService service(fixture.options());
  serve::Request same;
  same.id = "same";
  same.params = {{"platform", "cluster:hosts=8"},
                 {"traces", "tr"},
                 {"deployment", "block"}};
  // Another spelling of the directory, under a memo key of its own.
  serve::Request spelled = same;
  spelled.id = "spelled";
  spelled.params["traces"] = "./tr/";
  spelled.params["efficiency"] = "0.5";

  const auto before = service.run(same);
  ASSERT_EQ(before.status, serve::Response::Status::ok) << before.error;
  EXPECT_EQ(before.actions_replayed, trace::synthetic_actions(cg));
  const auto before_spelled = service.run(spelled);
  ASSERT_EQ(before_spelled.status, serve::Response::Status::ok);
  EXPECT_TRUE(before_spelled.trace_hit);  // one decode for both spellings
  EXPECT_TRUE(service.run(same).memo_hit);

  cg.iterations = 200;  // 8008 actions
  trace::write_synthetic_traces(fixture.scratch.path / "tr", cg, "text");

  for (const serve::Request* request : {&same, &spelled}) {
    SCOPED_TRACE(request->id);
    const auto after = service.run(*request);
    ASSERT_EQ(after.status, serve::Response::Status::ok) << after.error;
    EXPECT_FALSE(after.memo_hit);
    EXPECT_NE(after.trace_digest, before.trace_digest);
    EXPECT_EQ(after.actions_replayed, trace::synthetic_actions(cg));
    const auto reference = fixture.cold(request->params);
    ASSERT_EQ(reference.status, replay::ReplayStatus::ok) << reference.error;
    EXPECT_EQ(after.actions_replayed, reference.result.actions_replayed);
    EXPECT_EQ(after.processes,
              static_cast<int>(reference.result.process_finish_times.size()));
    EXPECT_TRUE(bit_equal(after.sim_time, reference.sim_time));
    EXPECT_TRUE(bit_equal(after.coverage, reference.coverage));
  }
  // The two spellings shared the new decode too.
  EXPECT_EQ(service.stats().trace_cache.misses, 2u);
}

TEST(ReplayServiceTest, RewrittenPlatformAndDeploymentFilesMissTheMemo) {
  ServiceFixture fixture;
  trace::SyntheticSpec cg;
  cg.nprocs = 8;
  cg.iterations = 10;
  trace::write_synthetic_traces(fixture.scratch.path / "tr", cg);
  plat::ClusterSpec cluster = plat::bordereau_spec(8);
  const fs::path platform = fixture.scratch.path / "p.xml";
  write_text(platform, plat::cluster_to_xml(cluster, "AS_p"));
  const fs::path deployment = fixture.scratch.path / "d.xml";
  const auto write_deployment = [&](bool folded) {
    plat::Deployment d;
    for (int p = 0; p < cg.nprocs; ++p)
      d.processes.push_back({"p" + std::to_string(p),
                             cluster.prefix + std::to_string(folded ? 0 : p) +
                                 cluster.suffix,
                             {}});
    write_text(deployment, d.to_xml());
  };
  write_deployment(false);

  serve::ReplayService service(fixture.options());
  serve::Request request;
  request.id = "files";
  request.params = {{"platform", "p.xml"},
                    {"traces", "tr"},
                    {"deployment", "d.xml"}};
  const auto first = service.run(request);
  ASSERT_EQ(first.status, serve::Response::Status::ok) << first.error;
  EXPECT_TRUE(service.run(request).memo_hit);

  // A rewrite that keeps the size is named by its mtime, set explicitly so
  // the test does not lean on the filesystem's timestamp granularity.
  const auto rewrite = [](const fs::path& path, const auto& write) {
    const auto stamp = fs::last_write_time(path);
    write();
    fs::last_write_time(path, stamp + std::chrono::seconds(10));
  };
  const auto expect_fresh = [&](const serve::Response& r) {
    ASSERT_EQ(r.status, serve::Response::Status::ok) << r.error;
    EXPECT_FALSE(r.memo_hit);
    const auto reference = fixture.cold(request.params);
    ASSERT_EQ(reference.status, replay::ReplayStatus::ok) << reference.error;
    EXPECT_TRUE(bit_equal(r.sim_time, reference.sim_time));
    EXPECT_EQ(r.actions_replayed, reference.result.actions_replayed);
  };

  rewrite(platform, [&] {
    cluster.backbone_bandwidth /= 10;  // eight ranks now share a slow switch
    write_text(platform, plat::cluster_to_xml(cluster, "AS_p"));
  });
  const auto slow = service.run(request);
  expect_fresh(slow);
  EXPECT_GT(slow.sim_time, first.sim_time);

  rewrite(deployment, [&] { write_deployment(true); });  // all on one host
  const auto folded = service.run(request);
  expect_fresh(folded);
  EXPECT_NE(folded.sim_time, slow.sim_time);
}

TEST(ReplayServiceTest, StatsTimeTheDispatcherBuildOfEveryRequest) {
  ServiceFixture fixture;
  serve::ReplayService service(fixture.options());
  serve::Request request;
  request.id = "b";
  request.params = fixture.base_params;
  ASSERT_EQ(service.run(request).status, serve::Response::Status::ok);
  EXPECT_TRUE(service.run(request).memo_hit);
  request.params["collectives"] = "bogus";
  EXPECT_EQ(service.run(request).status,
            serve::Response::Status::badrequest);

  const auto stats = service.stats();
  EXPECT_EQ(stats.build.count(), 3u);  // a miss, a hit and a bad request
  EXPECT_GT(stats.build.max(), 0.0);
  const auto rendered = serve::parse_json(serve::render_stats(stats));
  const auto* build = rendered.find("stats")->find("build");
  ASSERT_NE(build, nullptr);
  EXPECT_NE(build->string.find("n=3"), std::string::npos) << build->string;
}
