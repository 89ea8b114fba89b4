// Topology registry tests: spec-string parsing, error diagnostics, and the
// differential guarantee that a registry-built cluster is *bit-identical*
// to the legacy builder path — same names, same link parameters, same route
// link sequences, same replay result.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "platform/cluster.hpp"
#include "platform/platform_file.hpp"
#include "platform/topology.hpp"
#include "replay/scenario.hpp"
#include "support/error.hpp"

using namespace tir;
using namespace tir::plat;

TEST(TopoParams, ParsesTypedValuesWithUnits) {
  const auto params =
      TopoParams::parse("hosts=4,bw=250M,lat=50us,prefix=n-", "test");
  EXPECT_EQ(params.get_int("hosts", 0), 4);
  EXPECT_DOUBLE_EQ(params.get_value("bw", 0.0), 2.5e8);
  EXPECT_DOUBLE_EQ(params.get_duration("lat", 0.0), 5e-5);
  EXPECT_EQ(params.get("prefix", ""), "n-");
  EXPECT_TRUE(params.unread_keys().empty());
}

TEST(TopoParams, FallbacksAndUnreadTracking) {
  const auto params = TopoParams::parse("a=1,b=2", "test");
  EXPECT_EQ(params.get_int("a", 0), 1);
  EXPECT_EQ(params.get_int("missing", 7), 7);
  const auto unread = params.unread_keys();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "b");
}

TEST(TopoParams, RejectsMalformedEntries) {
  EXPECT_THROW(TopoParams::parse("novalue", "test"), ParseError);
  EXPECT_THROW(TopoParams::parse("=1", "test"), ParseError);
  EXPECT_THROW(TopoParams::parse("a=", "test"), ParseError);
  EXPECT_THROW(TopoParams::parse("a=1,a=2", "test"), ParseError);
  EXPECT_THROW(TopoParams::parse("n=x", "test").get_int("n", 0), ParseError);
}

TEST(TopologyRegistry, ListsTheBuiltins) {
  for (const char* expected :
       {"cluster", "bordereau", "gdx", "dragonfly", "fattree", "torus"})
    EXPECT_TRUE(is_topology(expected)) << expected;
  EXPECT_FALSE(is_topology("hypercube"));
  EXPECT_EQ(topology_list().size(), 6u);
}

TEST(TopologyRegistry, MakePlatformBuildsEachBuiltin) {
  EXPECT_EQ(make_platform("cluster:hosts=4").host_count(), 4u);
  EXPECT_EQ(make_platform("bordereau:nodes=5").host_count(), 5u);
  EXPECT_EQ(make_platform("gdx:nodes=36,cabinets=6").host_count(), 36u);
  EXPECT_EQ(
      make_platform("dragonfly:groups=3,routers=2,hosts=2,globals=1")
          .host_count(),
      12u);
  EXPECT_EQ(make_platform("fattree:k=4").host_count(), 16u);
  EXPECT_EQ(make_platform("torus:dims=2x3,hosts=2").host_count(), 12u);
}

TEST(TopologyRegistry, UnknownTopologyNamesTheKnownOnes) {
  try {
    make_platform("hypercube:dims=4");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("hypercube"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("dragonfly"), std::string::npos);
  }
}

TEST(TopologyRegistry, UnknownKeyIsAHardError) {
  try {
    make_platform("dragonfly:grps=3");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("grps"), std::string::npos);
  }
  EXPECT_THROW(make_platform("torus:dims=2x2,size=4"), ParseError);
}

namespace {

// A spec past the registry's 2^20 cap must fail as a ParseError naming the
// count it exceeds, before the builder allocates anything.
void expect_cap(const std::string& spec, const std::string& what) {
  try {
    make_platform(spec);
    ADD_FAILURE() << spec << ": expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("more than 1048576 " + what),
              std::string::npos)
        << spec << ": " << e.what();
  }
}

}  // namespace

TEST(TopologyRegistry, ClusterSizeIsCappedBeforeAllocating) {
  expect_cap("cluster:hosts=2000000000", "hosts");
  expect_cap("cluster:hosts=1048577", "hosts");
  expect_cap("bordereau:nodes=1048577", "hosts");
  expect_cap("gdx:nodes=36,cabinets=2000000", "cabinets");
  // Past int range the value is rejected rather than truncated.
  EXPECT_THROW(make_platform("cluster:hosts=4294967297"), ParseError);
  EXPECT_EQ(make_platform("cluster:hosts=544").host_count(), 544u);
}

TEST(TopologyRegistry, DragonflySizeIsCappedBeforeAllocating) {
  expect_cap("dragonfly:groups=2048,routers=1024,globals=2", "switches");
  expect_cap("dragonfly:groups=2,routers=2,hosts=1000000,globals=1", "hosts");
  // Few switches, but every router pair in a group is cabled.
  expect_cap("dragonfly:groups=1,routers=2000", "cables");
  // Every group pair gets a global cable.
  expect_cap("dragonfly:groups=2000,routers=1,globals=2000", "cables");
  // Products that overflow 64 bits saturate instead of wrapping.
  expect_cap("dragonfly:groups=2147483647,routers=2147483647,"
             "hosts=2147483647",
             "switches");
}

TEST(TopologyRegistry, FatTreeSizeIsCappedBeforeAllocating) {
  expect_cap("fattree:k=100000", "hosts");
  expect_cap("fattree:k=256", "hosts");  // 256^3/4 = 2^22 hosts
  expect_cap("fattree:k=2147483646", "hosts");
  EXPECT_EQ(make_platform("fattree:k=8").host_count(), 128u);
}

TEST(TopologyRegistry, TorusSizeIsCappedAsAParseError) {
  expect_cap("torus:dims=1024x1024x2", "switches");
  expect_cap("torus:dims=64x64x64,hosts=8", "hosts");
  expect_cap("torus:dims=2147483647x2147483647x2147483647", "switches");
  EXPECT_THROW(make_platform("torus:dims=4x99999999999"), ParseError);
  EXPECT_EQ(make_platform("torus:dims=4x4x4,hosts=2").host_count(), 128u);
}

TEST(TopologyRegistry, CustomRegistrationRoundTrips) {
  register_topology(
      "pair",
      [](Platform& p, const TopoParams& params) {
        ClusterSpec spec;
        spec.count = 2;
        spec.prefix = params.get("prefix", "pair-");
        return build_cluster(p, spec);
      },
      "two hosts for tests");
  EXPECT_TRUE(is_topology("pair"));
  const Platform p = make_platform("pair:prefix=x-");
  ASSERT_EQ(p.host_count(), 2u);
  EXPECT_EQ(p.host(0).name, "x-0");
}

TEST(TopologyRegistry, LoadPlatformSpecFallsBackToFiles) {
  namespace fs = std::filesystem;
  const fs::path file =
      fs::temp_directory_path() / "tir_topology_registry_test.xml";
  std::ofstream(file) << cluster_to_xml(bordereau_spec(3), "AS_test");
  const Platform from_file = load_platform_spec(file.string());
  EXPECT_EQ(from_file.host_count(), 3u);
  fs::remove(file);

  const Platform from_spec = load_platform_spec("torus:dims=2x2");
  EXPECT_EQ(from_spec.host_count(), 4u);

  try {
    load_platform_spec("no/such/file.xml");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    // The error must steer a typo'd topology name towards the registry.
    EXPECT_NE(std::string(e.what()).find("known:"), std::string::npos);
  }
}

// ---------------------------------------------------------------------------
// Differential: registry path vs legacy builder, bit for bit.

namespace {

void expect_identical_platforms(const Platform& a, const Platform& b) {
  ASSERT_EQ(a.host_count(), b.host_count());
  ASSERT_EQ(a.link_count(), b.link_count());
  for (std::size_t h = 0; h < a.host_count(); ++h) {
    const HostDesc& ha = a.host(static_cast<HostId>(h));
    const HostDesc& hb = b.host(static_cast<HostId>(h));
    EXPECT_EQ(ha.name, hb.name);
    EXPECT_EQ(ha.power, hb.power);
    EXPECT_EQ(ha.uplink, hb.uplink);
    EXPECT_EQ(ha.loopback, hb.loopback);
  }
  for (std::size_t l = 0; l < a.link_count(); ++l) {
    const LinkDesc& la = a.link(static_cast<LinkId>(l));
    const LinkDesc& lb = b.link(static_cast<LinkId>(l));
    EXPECT_EQ(la.name, lb.name);
    EXPECT_EQ(la.bandwidth, lb.bandwidth);
    EXPECT_EQ(la.latency, lb.latency);
  }
  for (std::size_t s = 0; s < a.host_count(); ++s) {
    for (std::size_t d = 0; d < a.host_count(); ++d) {
      const Route ra = a.route(static_cast<HostId>(s), static_cast<HostId>(d));
      const Route rb = b.route(static_cast<HostId>(s), static_cast<HostId>(d));
      EXPECT_EQ(ra.links, rb.links);
      // Bit-identical, not approximately equal: the provider refactor must
      // preserve the floating-point accumulation order.
      EXPECT_EQ(std::memcmp(&ra.latency, &rb.latency, sizeof ra.latency), 0);
    }
  }
}

}  // namespace

TEST(TopologyDifferential, RegistryBordereauMatchesLegacyBuilder) {
  Platform legacy;
  build_bordereau(legacy, 12);
  const Platform registry = make_platform("bordereau:nodes=12");
  expect_identical_platforms(legacy, registry);
}

TEST(TopologyDifferential, RegistryClusterMatchesLegacyBuilder) {
  ClusterSpec spec;
  spec.prefix = "c-";
  spec.count = 6;
  spec.power = 2e9;
  spec.bandwidth = 2.5e8;
  spec.latency = 1.5e-5;
  Platform legacy;
  build_cluster(legacy, spec);
  const Platform registry = make_platform(
      "cluster:hosts=6,prefix=c-,power=2e9,bw=2.5e8,lat=1.5e-5");
  expect_identical_platforms(legacy, registry);
}

TEST(TopologyDifferential, RegistryReplayIsBitIdenticalToLegacy) {
  using trace::Action;
  using trace::ActionType;
  std::vector<std::vector<Action>> streams = {
      {{0, ActionType::compute, -1, 1e8, 0, 0},
       {0, ActionType::send, 1, 1 << 20, 0, 0},
       {0, ActionType::recv, 1, 1 << 16, 0, 0}},
      {{1, ActionType::compute, -1, 2e8, 0, 0},
       {1, ActionType::recv, 0, 1 << 20, 0, 0},
       {1, ActionType::send, 0, 1 << 16, 0, 0}},
  };

  const auto legacy = std::make_shared<plat::Platform>();
  build_bordereau(*legacy, 2);
  const auto registry =
      std::make_shared<const plat::Platform>(make_platform("bordereau:nodes=2"));

  replay::ScenarioSpec a;
  a.platform = legacy;
  a.process_hosts = {0, 1};
  a.traces = trace::TraceSet::in_memory(streams);
  replay::ScenarioSpec b = a;
  b.platform = registry;

  const double ta = replay::run_scenario(a).simulated_time;
  const double tb = replay::run_scenario(b).simulated_time;
  EXPECT_EQ(std::memcmp(&ta, &tb, sizeof ta), 0) << ta << " vs " << tb;
}
