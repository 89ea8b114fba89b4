// Certified resources (simkern/maxmin.hpp): a resource that no member
// blocks couples nobody while its load (each member's rate once rated, its
// ceiling until then and while grouped) stays below capacity by
// kCertifiedMargin. Each transition (an empty resource, the ceiling
// charged at an add, every revocation path, the grant after a fill, a
// refill pass inside one solve, hub groups forming across a certified
// resource or dissolving when it closes) is checked against a full-solve
// twin (which certifies nothing) and a fresh rebuild: rates within the
// fill's tolerance, and a rate reported once, iff it moved.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "maxmin_harness.hpp"
#include "simkern/maxmin.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

using namespace tir;
using tir::sim::GroupId;
using tir::sim::MaxMin;
using tir::sim::ResourceId;
using tir::sim::VarId;
using tir::test::HubHarness;

namespace {

/// A backbone over NICs of capacity 1, two flows per NIC: twelve flows
/// charge ceilings of 12 against the backbone, which closes it at the tenth
/// add on a backbone of 10, but their NICs bind them at 0.5, so the fill
/// leaves it at a load of 6.
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
  MaxMin& m = t.solver();
  // An empty resource is certified at load 0; the full-solve twin
  // certifies nothing.
  const ResourceId spare = t.add_resource(5.0);
  EXPECT_TRUE(m.certified(spare));
  EXPECT_FALSE(t.full().certified(spare));
  // The tenth ceiling of 1 closed the backbone (it had members: a
  // revocation); the fill leaves it at 6 and certifies it again.
  const Paired p = build_paired(t);
  EXPECT_FALSE(m.certified(p.bb));
  EXPECT_EQ(m.solve_stats().revocations, 1u);
  t.solve_and_check();
  EXPECT_TRUE(m.certified(p.bb));
  EXPECT_DOUBLE_EQ(m.resource_load(p.bb), 6.0);
  for (const ResourceId nic : p.nics) EXPECT_FALSE(m.certified(nic));
  EXPECT_EQ(m.solve_stats().certificates, 1u);
  EXPECT_EQ(m.solve_stats().revocations, 1u);
  EXPECT_EQ(m.solve_stats().refills, 0u);
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
  const auto revoked = m.solve_stats().revocations;

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
  EXPECT_EQ(m.solve_stats().revocations, revoked);
}

TEST(MaxMinCertified, ALoneRateThatReachesTheMarkRevokes) {
  HubHarness t;
  const Paired p = build_paired(t);
  MaxMin& m = t.solver();
  t.solve_and_check();
  // Three lone flows of 1 take the load to 9. A fourth is charged its
  // ceiling of 1.5 before anything rates it: that carries the load past
  // 10, so its add revokes the certificate, it is no longer alone on a
  // coupling link, and the solve fills the backbone jointly: it binds the
  // four at 1.
  for (int i = 0; i < 3; ++i) t.add({p.bb, t.add_resource(1.0)});
  EXPECT_FALSE(m.dirty());
  EXPECT_TRUE(m.certified(p.bb));
  const auto revoked = m.solve_stats().revocations;
  const auto lone = m.solve_stats().lone_rates;
  const VarId wide = t.add({p.bb, t.add_resource(1.5)});
  EXPECT_EQ(m.rate(wide), 0.0);  // unrated until the solve
  EXPECT_EQ(m.solve_stats().lone_rates, lone);
  EXPECT_FALSE(m.certified(p.bb));
  EXPECT_TRUE(m.dirty());
  EXPECT_EQ(m.solve_stats().revocations, revoked + 1);
  EXPECT_EQ(t.solve_and_check(), (std::vector<VarId>{wide}));
  EXPECT_EQ(m.rate(wide), 1.0);
  EXPECT_FALSE(m.certified(p.bb));  // saturated now
  EXPECT_EQ(m.solve_stats().refills, 0u);
}

TEST(MaxMinCertified, AFillThatReachesTheMarkRefillsInTheSameSolve) {
  // A backbone of 6.8 over the paired flows' 6, and F, which shares a NIC
  // N of 1 with G, at 0.5: a load of 6.5, certified. G leaves, and the
  // first pass fills {N, F}: F's 1 carries the backbone past its mark. The
  // second pass fills across it: its NICs bind the pairs at 0.5, and F
  // takes the backbone's remaining 0.8. F is filled twice and reported
  // once.
  HubHarness t;
  const Paired p = build_paired(t, 6.8);
  MaxMin& m = t.solver();
  const ResourceId n = t.add_resource(1.0);
  const VarId f = t.add({p.bb, n});
  const VarId g = t.add({n});
  t.solve_and_check();
  ASSERT_TRUE(m.certified(p.bb));
  EXPECT_EQ(m.rate(f), 0.5);

  const auto revoked = m.solve_stats().revocations;
  const auto touched = m.solve_stats().vars_touched;
  t.remove(g);
  EXPECT_TRUE(m.certified(p.bb));
  EXPECT_EQ(t.solve_and_check(), (std::vector<VarId>{f}));
  EXPECT_EQ(m.solve_stats().refills, 1u);
  EXPECT_EQ(m.solve_stats().revocations, revoked + 1);
  EXPECT_FALSE(m.certified(p.bb));
  EXPECT_DOUBLE_EQ(m.rate(f), 0.8);
  EXPECT_EQ(m.rate(p.flows[0]), 0.5);
  // Both passes count: 1 then 13 variables (F again, with the backbone's
  // twelve).
  EXPECT_EQ(m.solve_stats().vars_touched - touched, 14u);
  EXPECT_EQ(m.solve_stats().last_component_vars, 14u);

  // G comes back: the backbone is under its mark again and is certified.
  t.add({n});
  t.solve_and_check();
  EXPECT_TRUE(m.certified(p.bb));
  EXPECT_EQ(m.rate(f), 0.5);
}

TEST(MaxMinCertified, ARateTheRefillMovesBackIsNotReported) {
  // Twelve flows at 0.25 (paired NICs of 0.5) on a backbone of 4.5, and
  // three risers, each sharing a NIC of 1 with 19 flows off the backbone
  // (0.05 each): a load of 3.15, certified. F is lone at 0.6, the capacity
  // of its private link P, beside a NIC N of 1. In one epoch D joins N
  // through the backbone (charged its ceiling of 1: 4.15, still under the
  // mark) and the risers' partners leave. The first pass halves N (F and D
  // at 0.5), and the risers' 1 each carries the backbone past its mark.
  // The refill binds the backbone's D and risers at 1.5 / 4 = 0.375, which
  // leaves F its 0.6 again: filled twice, not reported.
  HubHarness t;
  const ResourceId bb = t.add_resource(4.5);
  for (int i = 0; i < 6; ++i) {
    const ResourceId nic = t.add_resource(0.5);
    t.add({bb, nic});
    t.add({bb, nic});
  }
  std::vector<VarId> risers, partners;
  for (int i = 0; i < 3; ++i) {
    const ResourceId nic = t.add_resource(1.0);
    risers.push_back(t.add({bb, nic}));
    for (int k = 0; k < 19; ++k) partners.push_back(t.add({nic}));
  }
  const ResourceId n = t.add_resource(1.0);
  const VarId f = t.add({n, t.add_resource(0.6)});
  MaxMin& m = t.solver();
  t.solve_and_check();
  ASSERT_TRUE(m.certified(bb));
  EXPECT_EQ(m.rate(f), 0.6);

  const VarId d = t.add({bb, n});
  EXPECT_TRUE(m.certified(bb));
  for (const VarId v : partners) t.remove(v);
  const auto changed = t.solve_and_check();
  EXPECT_EQ(m.solve_stats().refills, 1u);
  EXPECT_EQ(m.rate(f), 0.6);
  EXPECT_EQ(std::count(changed.begin(), changed.end(), f), 0);
  EXPECT_EQ(std::count(changed.begin(), changed.end(), d), 1);
  for (const VarId v : risers) {
    EXPECT_EQ(std::count(changed.begin(), changed.end(), v), 1);
    EXPECT_EQ(m.rate(v), 0.375);
  }
  EXPECT_EQ(changed.size(), 4u);  // D and the risers
  EXPECT_EQ(m.rate(d), 0.375);
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
    const auto revoked = m.solve_stats().revocations;
    switch (kind) {
      case 0: t.add({p.bb, t.add_resource(1.0)}, 2.0); break;
      case 1: t.add({p.bb}); break;
      case 2: t.add({p.bb, t.add_resource(10.0)}); break;
    }
    EXPECT_FALSE(m.certified(p.bb));
    EXPECT_TRUE(m.dirty());
    EXPECT_EQ(m.solve_stats().revocations, revoked + 1);
    t.solve_and_check();
    // The new member still forbids a certificate.
    EXPECT_FALSE(m.certified(p.bb));
  }
}

TEST(MaxMinCertified, SetCapacityRevokes) {
  // Narrowing the backbone itself, and a change on a NIC its members cross.
  for (const bool own : {true, false}) {
    SCOPED_TRACE(own);
    HubHarness t;
    const Paired p = build_paired(t);
    MaxMin& m = t.solver();
    t.solve_and_check();
    ASSERT_TRUE(m.certified(p.bb));
    const auto revoked = m.solve_stats().revocations;
    if (own) {
      t.set_capacity(p.bb, 9.0);
    } else {
      t.set_capacity(p.nics[2], 0.8);
    }
    EXPECT_FALSE(m.certified(p.bb));
    EXPECT_TRUE(m.dirty());
    EXPECT_EQ(m.solve_stats().revocations, revoked + 1);
    t.solve_and_check();
    EXPECT_TRUE(m.certified(p.bb));  // the refill grants it again
  }
  // Widening it moves no member's ceiling and leaves its load below the
  // mark: it keeps the certificate and marks nothing.
  {
    HubHarness t;
    const Paired p = build_paired(t);
    MaxMin& m = t.solver();
    t.solve_and_check();
    const auto revoked = m.solve_stats().revocations;
    t.set_capacity(p.bb, 11.0);
    EXPECT_TRUE(m.certified(p.bb));
    EXPECT_FALSE(m.dirty());
    EXPECT_EQ(m.solve_stats().revocations, revoked);
    t.solve_and_check();
  }
  // A capacity change on a link no member crosses leaves it alone.
  HubHarness t;
  const Paired p = build_paired(t);
  const ResourceId other = t.add_resource(5.0);
  t.add({other});
  t.solve_and_check();
  const auto revoked = t.solver().solve_stats().revocations;
  t.set_capacity(other, 4.0);
  EXPECT_TRUE(t.solver().certified(p.bb));
  t.solve_and_check();
  EXPECT_EQ(t.solver().solve_stats().revocations, revoked);
}

TEST(MaxMinCertified, AnEmptiedLinkIsCertifiedAtLoadZero) {
  HubHarness t;
  const Paired p = build_paired(t);
  MaxMin& m = t.solver();
  t.solve_and_check();
  ASSERT_TRUE(m.certified(p.bb));
  const auto revoked = m.solve_stats().revocations;
  // One flow of each pair leaves: the backbone keeps its certificate and
  // sheds their load, and the solve covers their partners, each alone on
  // its NIC at 1 now.
  for (std::size_t i = 0; i < p.flows.size(); i += 2) t.remove(p.flows[i]);
  EXPECT_TRUE(m.certified(p.bb));
  EXPECT_EQ(t.solve_and_check().size(), 6u);
  EXPECT_TRUE(m.certified(p.bb));
  // The partners leave: every link empties, is certified at load 0, and
  // nothing is left to solve.
  for (std::size_t i = 1; i < p.flows.size(); i += 2) t.remove(p.flows[i]);
  EXPECT_FALSE(m.dirty());
  EXPECT_TRUE(m.certified(p.bb));
  for (const ResourceId nic : p.nics) EXPECT_TRUE(m.certified(nic));
  EXPECT_FALSE(t.full().certified(p.bb));
  t.solve_and_check();
  EXPECT_EQ(m.solve_stats().revocations, revoked);
  EXPECT_EQ(m.active_variable_count(), 0u);
  // Its load starts again from 0: nine lone flows of ceiling 1 keep it
  // certified, and the tenth closes it.
  for (int i = 0; i < 9; ++i) t.add({p.bb, t.add_resource(1.0)});
  EXPECT_TRUE(m.certified(p.bb));
  EXPECT_FALSE(m.dirty());
  t.add({p.bb, t.add_resource(1.0)});
  EXPECT_FALSE(m.certified(p.bb));
  EXPECT_EQ(m.solve_stats().revocations, revoked + 1);
  t.solve_and_check();
}

namespace {

/// Twenty flows in pairs on private links of 270, and 80 flows on a
/// backbone of 1000 over NICs of 400, the first of them also crossing a
/// wide link of 3000 that the twenty cross. Charged its ceiling of 400,
/// that first flow closes the wide link at its add, and the first solve
/// fills both sides jointly: no group (the twenty skip the backbone), and
/// the wide link is certified at 2700 + 12.5.
struct Bridged {
  ResourceId wide, bb;
  std::vector<ResourceId> nics;
  std::vector<VarId> hub;
};

Bridged build_bridged(HubHarness& t) {
  Bridged b;
  b.wide = t.add_resource(3000.0);
  for (int i = 0; i < 10; ++i) {
    const ResourceId priv = t.add_resource(270.0);
    t.add({b.wide, priv});
    t.add({b.wide, priv});
  }
  t.solve_and_check();
  b.bb = t.add_resource(1000.0);
  for (int i = 0; i < 40; ++i) b.nics.push_back(t.add_resource(400.0));
  for (int i = 0; i < 80; ++i) {
    std::vector<ResourceId> use{b.bb, b.nics[static_cast<std::size_t>(i % 40)],
                                b.nics[static_cast<std::size_t>((i + 7) % 40)]};
    if (i == 0) use.push_back(b.wide);
    b.hub.push_back(t.add(use));
  }
  t.solve_and_check();
  return b;
}

}  // namespace

TEST(MaxMinCertified, AHubGroupDoesNotFormAcrossACertifiedLink) {
  // A churn fills the 80 flows alone. The fill has the hub shape, but
  // grouped, the first flow would be charged its ceiling of 400 on the
  // wide link, past its mark, and the link has members outside the
  // component: the component stays on the fill path, and the wide link
  // keeps its certificate.
  HubHarness t;
  MaxMin& m = t.solver();
  const Bridged b = build_bridged(t);
  ASSERT_TRUE(m.certified(b.wide));
  EXPECT_TRUE(m.entered_groups().empty());
  const auto revoked = m.solve_stats().revocations;
  t.remove(b.hub[1]);
  t.add({b.bb, b.nics[1], b.nics[8]});
  t.solve_and_check();
  EXPECT_TRUE(m.entered_groups().empty());
  EXPECT_EQ(m.group_of(b.hub[2]), -1);
  EXPECT_TRUE(m.certified(b.wide));
  EXPECT_EQ(m.solve_stats().revocations, revoked);
  EXPECT_EQ(m.solve_stats().refills, 0u);
  EXPECT_EQ(m.solve_stats().last_component_vars, 80u);
  EXPECT_EQ(m.rate(b.hub[0]), 1000.0 / 80.0);

  // Without the bridging member the next large fill forms the group.
  t.remove(b.hub[0]);
  t.solve_and_check();
  ASSERT_EQ(m.entered_groups().size(), 1u);
  EXPECT_GE(m.group_of(b.hub[2]), 0);
  EXPECT_EQ(m.solve_stats().hub_entries, 1u);
}

TEST(MaxMinCertified, AHubShapedFillAcrossACertifiedLinkRevokesNothing) {
  // Churn beside the bridging member: each solve fills the 80 flows once.
  // It neither revokes the wide link nor fills its twenty flows again.
  HubHarness t;
  MaxMin& m = t.solver();
  const Bridged b = build_bridged(t);
  for (std::size_t k = 1; k <= 10; ++k) {
    SCOPED_TRACE(k);
    const auto revoked = m.solve_stats().revocations;
    const auto refills = m.solve_stats().refills;
    const auto touched = m.solve_stats().vars_touched;
    t.remove(b.hub[k]);
    t.add({b.bb, b.nics[k % 40], b.nics[(k + 7) % 40]});
    t.solve_and_check();
    EXPECT_EQ(m.solve_stats().revocations, revoked);
    EXPECT_EQ(m.solve_stats().refills, refills);
    EXPECT_LE(m.solve_stats().vars_touched - touched, 80u);
    EXPECT_TRUE(m.certified(b.wide));
    EXPECT_TRUE(m.entered_groups().empty());
  }
}

namespace {

/// Eighty flows on a backbone of 100, the narrowest link of each, so their
/// group's rate is 1.25; each also crosses a private link of 500, certified
/// outside the group at a load of one ceiling.
struct Grouped {
  ResourceId bb;
  std::vector<VarId> flows;
};

Grouped add_grouped(HubHarness& t, std::size_t n = 80) {
  Grouped gr;
  gr.bb = t.add_resource(100.0);
  for (std::size_t i = 0; i < n; ++i)
    gr.flows.push_back(t.add({gr.bb, t.add_resource(500.0)}));
  return gr;
}

}  // namespace

TEST(MaxMinCertified, ALinkTheGroupsCeilingsWouldFillJoinsTheGroup) {
  // Sixty flows over ten NICs of 500 (six per NIC), too few for a group:
  // their fill binds them at 100 / 60 and certifies the NICs, nobody's
  // narrowest link. Twenty more make the component hub-shaped. Grouped, a
  // NIC's six members would be charged ceilings of 600 in all, past its
  // mark; every member it has is in the component, so it joins the group
  // instead, without a refill.
  HubHarness t;
  MaxMin& m = t.solver();
  const ResourceId bb = t.add_resource(100.0);
  std::vector<ResourceId> nics;
  for (int i = 0; i < 10; ++i) nics.push_back(t.add_resource(500.0));
  std::vector<VarId> flows;
  for (std::size_t i = 0; i < 60; ++i)
    flows.push_back(t.add({bb, nics[i % 10]}));
  t.solve_and_check();
  for (const ResourceId nic : nics) ASSERT_TRUE(m.certified(nic));
  ASSERT_TRUE(m.entered_groups().empty());
  std::vector<ResourceId> priv;
  for (int i = 0; i < 20; ++i) {
    priv.push_back(t.add_resource(500.0));
    flows.push_back(t.add({bb, priv.back()}));
  }
  const auto revoked = m.solve_stats().revocations;
  t.solve_and_check();
  ASSERT_EQ(m.entered_groups().size(), 1u);
  const GroupId g = m.entered_groups()[0];
  EXPECT_EQ(m.group_members(g).size(), 80u);
  EXPECT_EQ(m.rate(flows[0]), 100.0 / 80.0);
  for (const ResourceId nic : nics) EXPECT_FALSE(m.certified(nic));
  for (const ResourceId r : priv) EXPECT_TRUE(m.certified(r));
  EXPECT_EQ(m.solve_stats().revocations, revoked);
  EXPECT_EQ(m.solve_stats().refills, 0u);

  // A member leaves and another joins through a NIC: the group answers
  // both without a fill.
  const auto touched = m.solve_stats().vars_touched;
  t.remove(flows[5]);
  const VarId joined = t.add({bb, nics[5]});
  EXPECT_EQ(m.group_of(joined), g);
  t.solve_and_check();
  EXPECT_EQ(m.solve_stats().vars_touched, touched);
  EXPECT_EQ(m.group_of(flows[0]), g);
}

namespace {

/// F and H cross a link X of 350, each beside a NIC of 100 it shares with
/// one flow (G1, G2): at 50 each, a load of 100 on X, certified.
struct Crossed {
  ResourceId x;
  VarId f, g1, h, g2;
};

Crossed build_crossed(HubHarness& t) {
  Crossed c;
  c.x = t.add_resource(350.0);
  const ResourceId n1 = t.add_resource(100.0), n2 = t.add_resource(100.0);
  c.f = t.add({c.x, n1});
  c.g1 = t.add({n1});
  c.h = t.add({c.x, n2});
  c.g2 = t.add({n2});
  t.solve_and_check();
  return c;
}

}  // namespace

TEST(MaxMinCertified, AFillThatClosesAGroupsLinkDissolvesItInTheSameSolve) {
  // Two of the 80 group members also cross X, charged their ceilings of
  // 100 there: a load of 300, certified. G1 and G2 leave, and a member
  // with them, so the group is due a re-rate; the first pass rates F and H
  // at 100, and X reaches its mark. The pass end closes it and dissolves
  // the group, which is not re-rated, and the refill covers X, F, H and
  // the 79 in the same solve. It reports the group's exit, and every
  // former member against the group's published rate.
  HubHarness t;
  MaxMin& m = t.solver();
  const Crossed c = build_crossed(t);
  const ResourceId x = c.x;
  const VarId f = c.f, h = c.h;
  ASSERT_TRUE(m.certified(x));
  const Grouped gr = add_grouped(t);
  t.solve_and_check();
  ASSERT_EQ(m.entered_groups().size(), 1u);
  const GroupId g = m.entered_groups()[0];
  const VarId a = gr.flows[0], b = gr.flows[1];
  t.remove(a);
  t.remove(b);
  const VarId a2 = t.add({gr.bb, x, t.add_resource(500.0)});
  const VarId b2 = t.add({gr.bb, x, t.add_resource(500.0)});
  EXPECT_EQ(m.group_of(a2), g);
  EXPECT_EQ(m.group_of(b2), g);
  t.solve_and_check();
  ASSERT_TRUE(m.certified(x));
  EXPECT_EQ(m.rate(f), 50.0);

  const auto refills = m.solve_stats().refills;
  t.remove(c.g1);
  t.remove(c.g2);
  t.remove(gr.flows[2]);
  const auto changed = t.solve_and_check();
  EXPECT_EQ(m.solve_stats().refills, refills + 1);
  ASSERT_EQ(m.exited_groups().size(), 1u);
  EXPECT_EQ(m.exited_groups()[0], g);
  EXPECT_TRUE(m.changed_groups().empty());
  EXPECT_TRUE(m.entered_groups().empty());  // F and H skip the backbone
  EXPECT_EQ(m.group_of(a2), -1);
  EXPECT_EQ(m.rate(f), 100.0);
  EXPECT_EQ(m.rate(h), 100.0);
  EXPECT_EQ(m.rate(a2), 100.0 / 79.0);
  EXPECT_EQ(changed.size(), 81u);
  EXPECT_TRUE(m.certified(x));  // the refill left it near 202.5

  // F and H leave: the next churn groups the 79 across X again.
  t.remove(f);
  t.remove(h);
  t.remove(gr.flows[3]);
  t.add({gr.bb, t.add_resource(500.0)});
  t.solve_and_check();
  ASSERT_EQ(m.entered_groups().size(), 1u);
  EXPECT_GE(m.group_of(a2), 0);
  EXPECT_TRUE(m.certified(x));
}

TEST(MaxMinCertified, AHubGroupFormsAfterTheSolvesLastFill) {
  // The 80 flows, two of them across X, arrive in the epoch in which G1
  // and G2 leave. The backbone's component fills first, hub-shaped, but a
  // group formed then would charge X its members' ceilings, and the fills
  // of F and H after it would carry X past its mark and dissolve the new
  // group in the same solve. Formed after the last fill, it sees X at
  // 202.5, which the ceilings would carry to 400 with F and H outside the
  // component: no group, no refill, and X keeps its certificate.
  HubHarness t;
  MaxMin& m = t.solver();
  const Crossed c = build_crossed(t);
  const ResourceId bb = t.add_resource(100.0);
  for (int i = 0; i < 80; ++i) {
    std::vector<ResourceId> use{bb, t.add_resource(500.0)};
    if (i < 2) use.push_back(c.x);
    t.add(use);
  }
  t.remove(c.g1);
  t.remove(c.g2);
  const auto revoked = m.solve_stats().revocations;
  t.solve_and_check();
  EXPECT_TRUE(m.entered_groups().empty());
  EXPECT_TRUE(m.exited_groups().empty());
  EXPECT_EQ(m.solve_stats().refills, 0u);
  EXPECT_EQ(m.solve_stats().revocations, revoked);
  EXPECT_TRUE(m.certified(c.x));
  EXPECT_EQ(m.rate(c.f), 100.0);
}

TEST(MaxMinCertified, ABurstOfUnratedFlowsClosesTheBackboneAtTheAdd) {
  // A backbone of 6 holds three lone flows (a load of 3). Eight unit flows
  // then arrive in one instant, each over two NICs of 1 that it shares
  // with its ring neighbours. Charged their ceilings of 1, they close the
  // backbone at the third add, and the solve fills the ring and the lone
  // flows once, jointly: the ring at 0.5, the lone flows at 2 / 3. Charged
  // only their rates, they would leave it certified until a fill rated the
  // ring, carried the load to 7, and revoked it for a second pass.
  HubHarness t;
  MaxMin& m = t.solver();
  const ResourceId bb = t.add_resource(6.0);
  std::vector<VarId> lone;
  for (int i = 0; i < 3; ++i) lone.push_back(t.add({bb, t.add_resource(1.0)}));
  EXPECT_FALSE(m.dirty());
  ASSERT_TRUE(m.certified(bb));
  std::vector<ResourceId> ring;
  for (int i = 0; i < 8; ++i) ring.push_back(t.add_resource(1.0));
  for (std::size_t i = 0; i < ring.size(); ++i) {
    t.add({bb, ring[i], ring[(i + 1) % ring.size()]});
    EXPECT_EQ(m.certified(bb), i < 2) << "flow " << i;
  }
  EXPECT_EQ(m.solve_stats().revocations, 1u);
  EXPECT_EQ(t.solve_and_check().size(), 11u);
  EXPECT_EQ(m.solve_stats().refills, 0u);
  EXPECT_EQ(m.solve_stats().revocations, 1u);
  EXPECT_EQ(m.solve_stats().vars_touched, 11u);
  EXPECT_EQ(m.solve_stats().max_component_vars, 11u);
  EXPECT_DOUBLE_EQ(m.rate(lone[0]), 2.0 / 3.0);
  EXPECT_FALSE(m.certified(bb));  // saturated
}

TEST(MaxMinCertified, AThrowDuringARefillLeavesEverythingMarked) {
  // The refill scenario above, with an unconstrained variable (weight
  // 1e-12 or less, alone on a link) added in the same epoch: its fill
  // throws after the first component queued the backbone's revocation.
  // The next solve, once it is gone, must still fill every touched link.
  HubHarness t;
  const Paired p = build_paired(t, 6.8);
  MaxMin& m = t.solver();
  const ResourceId n = t.add_resource(1.0);
  const VarId f = t.add({p.bb, n});
  const VarId g = t.add({n});
  t.solve_and_check();
  ASSERT_TRUE(m.certified(p.bb));

  t.remove(g);
  // Only the incremental solver sees the tiny variable.
  const VarId tiny = m.add_variable(1e-13, {t.add_resource(100.0)});
  EXPECT_THROW(m.solve(), Error);
  EXPECT_FALSE(m.certified(p.bb));
  EXPECT_TRUE(m.dirty());
  m.remove_variable(tiny);
  t.solve_and_check();
  EXPECT_DOUBLE_EQ(m.rate(f), 0.8);
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
