// Service-layer suite: content-addressed trace digests, the TraceCache
// (alias hits, content dedup across encodings, LRU eviction), the
// ResultMemo (bit-identical hits, LRU eviction), the JSON line
// protocol, and the ReplayService end to end — dispatch (hits answered while
// a replay runs, in-flight joins, admission, shutdown) and the differential
// guarantee the whole layer hangs on: a memoised response is bit-for-bit the
// report a cold replay computes.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "replay/scenario.hpp"
#include "serve/json.hpp"
#include "serve/memo.hpp"
#include "serve/scenario_build.hpp"
#include "serve/service.hpp"
#include "serve/trace_cache.hpp"
#include "support/error.hpp"
#include "trace/codec.hpp"
#include "trace/digest.hpp"
#include "trace/synthetic.hpp"
#include "trace/text_format.hpp"
#include "trace/trace_set.hpp"

using namespace tir;
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

/// Writes `program` under dir/<sub> with the named codec, one file per
/// process, returning the file list.
std::vector<fs::path> write_encoded(
    const fs::path& dir, const std::string& codec_name,
    const std::vector<std::vector<trace::Action>>& program) {
  fs::create_directories(dir);
  const trace::TraceCodec& codec = trace::codec_by_name(codec_name);
  std::vector<fs::path> files;
  for (std::size_t p = 0; p < program.size(); ++p) {
    files.push_back(dir / ("SG_process" + std::to_string(p) + ".trace"));
    codec.encode(files.back(), program[p], static_cast<int>(p));
  }
  return files;
}

}  // namespace

// ---------------------------------------------------------------------------
// Digest

TEST(DigestTest, StableAcrossCodecsAndLayouts) {
  ScratchDir scratch("digest");
  const auto program = ring_actions(4, 3);

  const auto text = write_encoded(scratch.path / "text", "text", program);
  const auto binary = write_encoded(scratch.path / "bin", "binary", program);
  const auto compact =
      write_encoded(scratch.path / "comp", "compact", program);

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
  trace::codec_by_name("text").encode(merged_file, merged, -1);
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
  EXPECT_EQ(&second.traces.actions(0), &first.traces.actions(0));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.aliases, 1u);
}

TEST(TraceCacheTest, ContentDedupAcrossEncodings) {
  ScratchDir scratch("dedup");
  const auto program = ring_actions(4, 2);
  const auto text = write_encoded(scratch.path / "text", "text", program);
  const auto compact =
      write_encoded(scratch.path / "comp", "compact", program);

  serve::TraceCache cache;
  const auto a = cache.get("text", [&] {
    return trace::TraceSet::per_process_files(text);
  });
  const auto b = cache.get("compact", [&] {
    return trace::TraceSet::per_process_files(compact);
  });

  // The second decode ran (different source key) but its content matched:
  // the resident entry wins, so both answers share one decoded storage.
  EXPECT_FALSE(b.hit);
  EXPECT_TRUE(b.deduplicated);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(&a.traces.actions(0), &b.traces.actions(0));

  const auto stats = cache.stats();
  EXPECT_EQ(stats.dedups, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.aliases, 2u);

  // Both aliases now answer resident.
  EXPECT_TRUE(cache.get("compact", [&]() -> trace::TraceSet {
                     throw Error("loader must not run");
                   }).hit);
}

TEST(TraceCacheTest, LruEvictionRespectsByteBudget) {
  const auto one = ring_actions(2, 1);
  const std::uint64_t entry_bytes =
      trace::decoded_bytes(trace::TraceSet::in_memory(one));

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

  // Same bytes materialised: full decode, same digest, content-deduped
  // onto the resident streamed entry.
  const auto materialised = cache.get("syn-materialised", [&] {
    return trace::TraceSet::per_process_files(
        files, trace::DecodeMode::strict, trace::DecodePolicy::materialise);
  });
  EXPECT_EQ(materialised.digest, streamed.digest);
  EXPECT_TRUE(materialised.deduplicated);
  EXPECT_EQ(cache.stats().entries, 1u);

  // Both aliases now hit without running a loader.
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
      trace::decoded_bytes(trace::TraceSet::in_memory(one));
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

// ---------------------------------------------------------------------------
// InputResolver

TEST(InputResolverTest, PathSpellingsShareOneDecode) {
  ScratchDir scratch("resolver");
  const auto program = ring_actions(4, 2);
  write_encoded(scratch.path / "ti", "text", program);

  serve::TraceCache cache;
  serve::InputResolver resolver(scratch.path, cache);
  const auto a = resolver.traces("ti", /*merged=*/false);
  const auto b = resolver.traces("./ti", /*merged=*/false);
  const auto c =
      resolver.traces(fs::absolute(scratch.path / "ti").string(),
                      /*merged=*/false);
  EXPECT_FALSE(a.hit);
  EXPECT_TRUE(b.hit);
  EXPECT_TRUE(c.hit);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(&a.traces.actions(0), &b.traces.actions(0));
  EXPECT_EQ(&a.traces.actions(0), &c.traces.actions(0));
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
    write_encoded(scratch.path / "ti", "text", ring_actions(nprocs, rounds));
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

  /// Cold reference: the same KeyValues through serve::build_scenario and a
  /// direct run_scenario_report, bypassing every cache.
  replay::ReplayReport cold(
      const std::map<std::string, std::string>& params, int replica = 0) {
    serve::TraceCache cache;
    serve::InputResolver resolver(scratch.path, cache);
    serve::KeyValues kv;
    kv.kv = params;
    kv.kv.erase("replica");
    const auto entry = serve::build_scenario(kv, resolver, 0);
    return replay::run_scenario_report(serve::bake_replica(entry, replica));
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

TEST(ReplayServiceTest, CrossEncodingRequestsHitOneMemoEntry) {
  ServiceFixture fixture;
  const auto program = ring_actions(4, 3);
  write_encoded(fixture.scratch.path / "ti_compact", "compact", program);

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
  std::atomic<int> answered{0};
  int accepted = 0, shed = 0;
  for (int i = 0; i < kRequests; ++i) {
    serve::Request request;
    request.id = std::to_string(i);
    request.params = fixture.base_params;
    // Distinct scenarios (no memo shortcut): each must actually replay.
    request.params["efficiency"] = std::to_string(0.5 + 0.001 * i);
    if (service.submit(std::move(request),
                       [&](serve::Response) { answered.fetch_add(1); }))
      ++accepted;
    else
      ++shed;
  }
  service.drain();

  // Admission control kept the backlog bounded: with 2 slots and
  // millisecond replays, a tight 64-request loop must shed.
  EXPECT_GT(shed, 0);
  EXPECT_EQ(answered.load(), accepted);
  const auto stats = service.stats();
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(accepted));
  EXPECT_LE(stats.max_queue_depth, 2u);

  // The canned overloaded response names the condition.
  serve::Request probe;
  probe.id = "probe";
  const auto response = service.make_overloaded(probe);
  EXPECT_EQ(response.status, serve::Response::Status::overloaded);
  EXPECT_EQ(serve::to_string(response.status), "overloaded");
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

  // The only worker is busy with the heavy replay; the dispatcher still
  // answers the memoised request on arrival.
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
  write_encoded(scratch.path / "ti", "text", program);

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
