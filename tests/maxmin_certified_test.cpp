// Certified resources (simkern/maxmin.hpp): a filled resource left below
// capacity by kSlackMargin couples nobody while its load stays there. Each
// transition — the grant, every revocation path, emptying, a refill pass
// inside one solve — is checked against a full-solve twin (which certifies
// nothing) and a fresh rebuild: rates within the fill's tolerance, and a
// rate reported once, iff it moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "maxmin_harness.hpp"
#include "simkern/maxmin.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

using namespace tir;
using tir::sim::MaxMin;
using tir::sim::ResourceId;
using tir::sim::VarId;
using tir::test::HubHarness;

namespace {

/// A backbone over NICs of capacity 1, two flows per NIC: twelve flows
/// hold ceilings of 12 against the backbone (not slack), but their NICs
/// bind them at 0.5, so the fill leaves the backbone at a load of 6.
struct Paired {
  ResourceId bb;
  std::vector<ResourceId> nics;
  std::vector<VarId> flows;
};

Paired build_paired(HubHarness& t, double backbone = 10.0) {
  Paired p;
  p.bb = t.add_resource(backbone);
  for (int i = 0; i < 6; ++i) p.nics.push_back(t.add_resource(1.0));
  for (int i = 0; i < 12; ++i)
    p.flows.push_back(t.add({p.bb, p.nics[static_cast<std::size_t>(i / 2)]}));
  return p;
}

}  // namespace

TEST(MaxMinCertified, AnUnsaturatedBackboneIsCertifiedAndNicsAreNot) {
  HubHarness t;
  const Paired p = build_paired(t);
  MaxMin& m = t.solver();
  EXPECT_FALSE(m.slack(p.bb));
  EXPECT_FALSE(m.certified(p.bb));
  t.solve_and_check();
  EXPECT_TRUE(m.certified(p.bb));
  EXPECT_DOUBLE_EQ(m.resource_load(p.bb), 6.0);
  for (const ResourceId nic : p.nics) EXPECT_FALSE(m.certified(nic));
  EXPECT_EQ(m.solve_stats().certificates, 1u);
  EXPECT_EQ(m.solve_stats().revocations, 0u);
  EXPECT_EQ(m.solve_stats().refills, 0u);
  // The full-solve twin certifies nothing.
  EXPECT_FALSE(t.full().certified(p.bb));
  EXPECT_EQ(t.full().solve_stats().certificates, 0u);
}

TEST(MaxMinCertified, ASaturatedOrWeightedLinkIsNotCertified) {
  // Twelve flows on private NICs: the backbone binds them at 10 / 12.
  {
    HubHarness t;
    const ResourceId bb = t.add_resource(10.0);
    for (int i = 0; i < 12; ++i) t.add({bb, t.add_resource(1.0)});
    t.solve_and_check();
    EXPECT_FALSE(t.solver().certified(bb));
  }
  // A member of weight 2 forbids the certificate.
  HubHarness t;
  const Paired p = build_paired(t);
  t.add({p.bb, p.nics[0]}, 2.0);
  t.solve_and_check();
  EXPECT_FALSE(t.solver().certified(p.bb));
  EXPECT_EQ(t.solver().solve_stats().certificates, 0u);
}

TEST(MaxMinCertified, ACertifiedBackboneIsLookedThrough) {
  HubHarness t;
  const Paired p = build_paired(t);
  MaxMin& m = t.solver();
  t.solve_and_check();
  ASSERT_TRUE(m.certified(p.bb));

  // A flow on a fresh NIC is lone: rated on the spot, and its rate loads
  // the backbone.
  const auto lone = m.solve_stats().lone_rates;
  const VarId v = t.add({p.bb, t.add_resource(1.0)});
  EXPECT_FALSE(m.dirty());
  EXPECT_EQ(m.solve_stats().lone_rates, lone + 1);
  EXPECT_EQ(m.rate(v), 1.0);
  EXPECT_TRUE(t.solve_and_check().empty());

  // A member leaving marks only its NIC: the solve covers its partner, not
  // the backbone's other members.
  const auto touched = m.solve_stats().vars_touched;
  t.remove(p.flows[0]);
  EXPECT_EQ(t.solve_and_check(), (std::vector<VarId>{p.flows[1]}));
  EXPECT_EQ(m.rate(p.flows[1]), 1.0);
  EXPECT_EQ(m.solve_stats().vars_touched - touched, 1u);
  EXPECT_TRUE(m.certified(p.bb));

  // Leaving the lone flow marks nothing at all.
  t.remove(v);
  EXPECT_FALSE(m.dirty());
  EXPECT_EQ(m.solve_stats().revocations, 0u);
}

TEST(MaxMinCertified, ALoneRateThatReachesTheMarkRevokes) {
  HubHarness t;
  const Paired p = build_paired(t);
  MaxMin& m = t.solver();
  t.solve_and_check();
  // Three lone flows of 1 take the load to 9; a fourth of 1.5 would carry
  // it past 10, so its add revokes the certificate and the solve fills the
  // backbone jointly: it binds the four at 1.
  for (int i = 0; i < 3; ++i) t.add({p.bb, t.add_resource(1.0)});
  EXPECT_FALSE(m.dirty());
  const VarId wide = t.add({p.bb, t.add_resource(1.5)});
  EXPECT_EQ(m.rate(wide), 1.5);  // the lone rate, until the solve
  EXPECT_FALSE(m.certified(p.bb));
  EXPECT_TRUE(m.dirty());
  EXPECT_EQ(m.solve_stats().revocations, 1u);
  EXPECT_EQ(t.solve_and_check(), (std::vector<VarId>{wide}));
  EXPECT_EQ(m.rate(wide), 1.0);
  EXPECT_FALSE(m.certified(p.bb));  // saturated now
  EXPECT_EQ(m.solve_stats().refills, 0u);
}

TEST(MaxMinCertified, AFillThatReachesTheMarkRefillsInTheSameSolve) {
  // A backbone of 6.2 over the paired flows' load of 6. A new flow D also
  // crosses a side link S of 1.2 that a lone flow E holds; the first pass
  // fills {S, D, E} (0.6 each), which carries the backbone past its mark.
  // The second pass fills across it: it binds its 13 flows at 6.2 / 13, and
  // E takes the rest of S. D and E are each filled twice and reported once.
  HubHarness t;
  const Paired p = build_paired(t, 6.2);
  MaxMin& m = t.solver();
  const ResourceId side = t.add_resource(1.2);
  const VarId e = t.add({side});
  t.solve_and_check();
  ASSERT_TRUE(m.certified(p.bb));
  EXPECT_EQ(m.rate(e), 1.2);

  const VarId d = t.add({p.bb, t.add_resource(1.0), side});
  const auto touched = m.solve_stats().vars_touched;
  const auto changed = t.solve_and_check();
  EXPECT_EQ(m.solve_stats().refills, 1u);
  EXPECT_EQ(m.solve_stats().revocations, 1u);
  EXPECT_FALSE(m.certified(p.bb));
  EXPECT_EQ(changed.size(), 14u);  // the 12 paired flows, D and E
  EXPECT_EQ(m.rate(d), 6.2 / 13.0);
  EXPECT_EQ(m.rate(p.flows[0]), 6.2 / 13.0);
  EXPECT_NEAR(m.rate(e), 1.2 - 6.2 / 13.0, 1e-15);
  // Both passes count: 2 then 14 variables (S's component again, with the
  // backbone's twelve).
  EXPECT_EQ(m.solve_stats().vars_touched - touched, 16u);
  EXPECT_EQ(m.solve_stats().last_component_vars, 16u);

  // D leaves: the backbone is under its mark again and is re-certified.
  t.remove(d);
  t.solve_and_check();
  EXPECT_TRUE(m.certified(p.bb));
  EXPECT_EQ(m.rate(e), 1.2);
  EXPECT_EQ(m.rate(p.flows[0]), 0.5);
}

TEST(MaxMinCertified, ARateTheRefillMovesBackIsNotReported) {
  // Twelve flows at 0.25 (paired NICs of 0.5) on a backbone of 3.3. F is
  // lone at 0.6, the capacity of its private link P, beside a NIC N of 1.
  // D joins N through the backbone: the first pass halves N (F and D at
  // 0.5), and G on the side link S takes another 0.45, which carries the
  // backbone past its mark. The refill binds the backbone's 14 flows at
  // 3.3 / 14, which leaves F its 0.6 again: filled twice, not reported.
  HubHarness t;
  const ResourceId bb = t.add_resource(3.3);
  std::vector<VarId> paired;
  for (int i = 0; i < 6; ++i) {
    const ResourceId nic = t.add_resource(0.5);
    paired.push_back(t.add({bb, nic}));
    paired.push_back(t.add({bb, nic}));
  }
  const ResourceId n = t.add_resource(1.0);
  const VarId f = t.add({n, t.add_resource(0.6)});
  const ResourceId side = t.add_resource(0.9);
  const VarId e = t.add({side});
  MaxMin& m = t.solver();
  t.solve_and_check();
  ASSERT_TRUE(m.certified(bb));
  EXPECT_EQ(m.rate(f), 0.6);

  const VarId d = t.add({bb, n});
  const VarId g = t.add({bb, t.add_resource(1.0), side});
  const auto changed = t.solve_and_check();
  EXPECT_EQ(m.solve_stats().refills, 1u);
  EXPECT_EQ(m.rate(f), 0.6);
  EXPECT_EQ(std::count(changed.begin(), changed.end(), f), 0);
  EXPECT_EQ(std::count(changed.begin(), changed.end(), d), 1);
  EXPECT_EQ(std::count(changed.begin(), changed.end(), g), 1);
  EXPECT_EQ(std::count(changed.begin(), changed.end(), e), 1);
  EXPECT_EQ(changed.size(), 15u);  // 12 paired, D, G, E
  EXPECT_EQ(m.rate(d), 3.3 / 14.0);
}

TEST(MaxMinCertified, AddsThatBreakTheCriterionRevoke) {
  // A weight other than 1, and a flow whose narrowest link the backbone is
  // (alone on it, or beside a NIC at least as wide): each revokes and marks
  // the backbone, and the solve fills across it.
  for (int kind = 0; kind < 3; ++kind) {
    SCOPED_TRACE(kind);
    HubHarness t;
    const Paired p = build_paired(t);
    MaxMin& m = t.solver();
    t.solve_and_check();
    ASSERT_TRUE(m.certified(p.bb));
    switch (kind) {
      case 0: t.add({p.bb, t.add_resource(1.0)}, 2.0); break;
      case 1: t.add({p.bb}); break;
      case 2: t.add({p.bb, t.add_resource(10.0)}); break;
    }
    EXPECT_FALSE(m.certified(p.bb));
    EXPECT_TRUE(m.dirty());
    EXPECT_EQ(m.solve_stats().revocations, 1u);
    t.solve_and_check();
    // The new member still forbids a certificate.
    EXPECT_FALSE(m.certified(p.bb));
  }
}

TEST(MaxMinCertified, SetCapacityRevokes) {
  // On the backbone itself, and on a NIC its members cross.
  for (const bool own : {true, false}) {
    SCOPED_TRACE(own);
    HubHarness t;
    const Paired p = build_paired(t);
    MaxMin& m = t.solver();
    t.solve_and_check();
    ASSERT_TRUE(m.certified(p.bb));
    if (own) {
      t.set_capacity(p.bb, 11.0);  // ceilings of 12: still coupling
    } else {
      t.set_capacity(p.nics[2], 0.8);
    }
    EXPECT_FALSE(m.certified(p.bb));
    EXPECT_TRUE(m.dirty());
    EXPECT_EQ(m.solve_stats().revocations, 1u);
    t.solve_and_check();
    EXPECT_TRUE(m.certified(p.bb));  // the refill grants it again
  }
  // A capacity change on a link no member crosses leaves it alone.
  HubHarness t;
  const Paired p = build_paired(t);
  const ResourceId other = t.add_resource(5.0);
  t.add({other});
  t.solve_and_check();
  t.set_capacity(other, 4.0);
  EXPECT_TRUE(t.solver().certified(p.bb));
  t.solve_and_check();
  EXPECT_EQ(t.solver().solve_stats().revocations, 0u);
}

TEST(MaxMinCertified, EmptyingOrTurningSlackDropsTheCertificate) {
  HubHarness t;
  const Paired p = build_paired(t);
  MaxMin& m = t.solver();
  t.solve_and_check();
  ASSERT_TRUE(m.certified(p.bb));
  // Nine flows hold ceilings of 9 against 10: slack, no load to keep.
  for (std::size_t i = 0; i < 3; ++i) t.remove(p.flows[i]);
  EXPECT_TRUE(m.slack(p.bb));
  EXPECT_FALSE(m.certified(p.bb));
  t.solve_and_check();
  // Back to coupling at the tenth, and certified by the fill it takes.
  t.add({p.bb, p.nics[0]});
  EXPECT_FALSE(m.slack(p.bb));
  t.solve_and_check();
  EXPECT_TRUE(m.certified(p.bb));
  // Emptied: no certificate, and nothing to solve.
  for (std::size_t i = 3; i < p.flows.size(); ++i) t.remove(p.flows[i]);
  t.remove(t.nth_live(0));
  EXPECT_FALSE(m.certified(p.bb));
  t.solve_and_check();
  EXPECT_EQ(m.solve_stats().revocations, 0u);
  EXPECT_EQ(m.active_variable_count(), 0u);
}

TEST(MaxMinCertified, AHubGroupDoesNotFormAcrossACertifiedLink) {
  // Twenty flows in pairs on private links of 200 leave a wide link of
  // 3000 at a load of 2000: certified. Then 80 flows join a backbone of
  // 1000 over roomy NICs, one of them also crossing the wide link. Their
  // fill has the hub shape, but a group would hide that member's rate from
  // the wide link: it is revoked, and the refill fills both together.
  HubHarness t;
  const ResourceId wide = t.add_resource(3000.0);
  for (int i = 0; i < 10; ++i) {
    const ResourceId priv = t.add_resource(200.0);
    t.add({wide, priv});
    t.add({wide, priv});
  }
  MaxMin& m = t.solver();
  t.solve_and_check();
  ASSERT_TRUE(m.certified(wide));

  const ResourceId bb = t.add_resource(1000.0);
  std::vector<ResourceId> nics;
  for (int i = 0; i < 40; ++i) nics.push_back(t.add_resource(400.0));
  std::vector<VarId> hub;
  for (int i = 0; i < 80; ++i) {
    std::vector<ResourceId> use{bb, nics[static_cast<std::size_t>(i % 40)],
                                nics[static_cast<std::size_t>((i + 7) % 40)]};
    if (i == 0) use.push_back(wide);
    hub.push_back(t.add(use));
  }
  t.solve_and_check();
  EXPECT_TRUE(m.entered_groups().empty());
  EXPECT_EQ(m.group_of(hub[1]), -1);
  EXPECT_EQ(m.solve_stats().revocations, 1u);
  EXPECT_EQ(m.solve_stats().refills, 1u);
  EXPECT_EQ(m.rate(hub[0]), 1000.0 / 80.0);

  // Without the bridging member the next large fill forms the group.
  t.remove(hub[0]);
  t.solve_and_check();
  ASSERT_EQ(m.entered_groups().size(), 1u);
  EXPECT_GE(m.group_of(hub[1]), 0);
  EXPECT_EQ(m.solve_stats().hub_entries, 1u);
}

TEST(MaxMinCertified, AThrowDuringARefillLeavesEverythingMarked) {
  // The refill scenario above, with an unconstrained variable (weight
  // 1e-12 or less, alone on a link) added in the same epoch: its fill
  // throws after the first component queued the backbone's revocation.
  // The next solve, once it is gone, must still fill every touched link.
  HubHarness t;
  const Paired p = build_paired(t, 6.2);
  MaxMin& m = t.solver();
  const ResourceId side = t.add_resource(1.2);
  t.add({side});
  t.solve_and_check();
  ASSERT_TRUE(m.certified(p.bb));

  t.add({p.bb, t.add_resource(1.0), side});
  // Only the incremental solver sees the tiny variable.
  const VarId tiny = m.add_variable(1e-13, {t.add_resource(100.0)});
  EXPECT_THROW(m.solve(), Error);
  EXPECT_FALSE(m.certified(p.bb));
  EXPECT_TRUE(m.dirty());
  m.remove_variable(tiny);
  t.solve_and_check();
  EXPECT_EQ(m.rate(p.flows[0]), 6.2 / 13.0);
}

TEST(MaxMinCertified, RandomBackboneOverNicStreamsMatchFullSolve) {
  // A backbone over NICs of mixed widths, flows between two NICs, pairs of
  // flows sharing NICs so that most fills leave the backbone unsaturated:
  // its load swings across the margin, and each certificate granted is
  // revoked again by a lone rate, a fill, an odd add or a capacity change.
  for (const std::uint64_t seed : {11ull, 202ull, 4242ull}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    HubHarness t;
    const ResourceId bb = t.add_resource(100.0);
    std::vector<ResourceId> nics;
    for (int i = 0; i < 32; ++i)
      nics.push_back(t.add_resource(rng.uniform(6.0, 14.0)));
    const auto nic = [&] { return nics[rng.next_below(nics.size())]; };
    MaxMin& m = t.solver();
    int granted = 0, lost = 0;
    bool was_certified = false;
    for (int step = 0; step < 1200; ++step) {
      // The live count swings between about 8 and 28 flows.
      const std::size_t target = (step / 40) % 2 == 0 ? 8 : 28;
      const auto ops = 1 + rng.next_below(3);
      for (std::uint64_t op = 0; op < ops; ++op) {
        const double dice = rng.next_double();
        if (dice < 0.04) {
          t.set_capacity(bb, rng.uniform(70.0, 160.0));
        } else if (dice < 0.08) {
          t.set_capacity(nic(), rng.uniform(6.0, 14.0));
        } else if (dice < 0.11) {
          t.add({bb, nic()}, rng.uniform(0.5, 2.0));
        } else if (t.live() < target) {
          t.add({bb, nic(), nic()});
        } else if (t.live() > 0) {
          t.remove(t.nth_live(rng.next_below(t.live())));
        }
      }
      t.solve_and_check();
      if (m.certified(bb) != was_certified) {
        ++(was_certified ? lost : granted);
        was_certified = m.certified(bb);
      }
    }
    EXPECT_GT(granted, 10);
    EXPECT_GT(lost, 10);
    const auto& st = m.solve_stats();
    EXPECT_GT(st.certificates, 10u);
    EXPECT_GT(st.revocations, 10u);
    EXPECT_GT(st.refills, 0u);
    EXPECT_GT(st.lone_rates, 0u);
  }
}
