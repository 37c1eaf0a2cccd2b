// NeighborTable and FlowTable unit tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "net/flow_table.hpp"
#include "net/neighbor_table.hpp"

namespace imobif::net {
namespace {

sim::Time sec(double s) { return sim::Time::from_seconds(s); }

using util::Joules;

TEST(NeighborTable, UpsertAndFind) {
  NeighborTable t(sec(30.0));
  t.upsert(5, {1.0, 2.0}, Joules{9.5}, sec(0.0));
  const auto hit = t.find(5, sec(10.0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, 5u);
  EXPECT_EQ(hit->position, (geom::Vec2{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(hit->residual_energy.value(), 9.5);
}

TEST(NeighborTable, MissingIsAbsent) {
  NeighborTable t;
  EXPECT_FALSE(t.find(7, sec(0.0)).has_value());
}

TEST(NeighborTable, UpsertRefreshes) {
  NeighborTable t(sec(30.0));
  t.upsert(5, {1.0, 2.0}, Joules{9.5}, sec(0.0));
  t.upsert(5, {3.0, 4.0}, Joules{8.0}, sec(10.0));
  const auto hit = t.find(5, sec(15.0));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->position, (geom::Vec2{3.0, 4.0}));
  EXPECT_DOUBLE_EQ(hit->residual_energy.value(), 8.0);
  EXPECT_EQ(hit->last_heard, sec(10.0));
  EXPECT_EQ(t.size(), 1u);
}

TEST(NeighborTable, ExpiredEntriesAreHidden) {
  NeighborTable t(sec(30.0));
  t.upsert(5, {1.0, 2.0}, Joules{9.5}, sec(0.0));
  EXPECT_TRUE(t.find(5, sec(30.0)).has_value());   // exactly at timeout: ok
  EXPECT_FALSE(t.find(5, sec(30.1)).has_value());  // past timeout: gone
}

TEST(NeighborTable, PurgeRemovesExpired) {
  NeighborTable t(sec(30.0));
  t.upsert(1, {0, 0}, Joules{1.0}, sec(0.0));
  t.upsert(2, {0, 0}, Joules{1.0}, sec(20.0));
  t.purge(sec(40.0));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_TRUE(t.find(2, sec(40.0)).has_value());
}

TEST(NeighborTable, SnapshotExcludesExpired) {
  NeighborTable t(sec(30.0));
  t.upsert(1, {0, 0}, Joules{1.0}, sec(0.0));
  t.upsert(2, {0, 0}, Joules{1.0}, sec(25.0));
  const auto snap = t.snapshot(sec(40.0));
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].id, 2u);
}

TEST(NeighborTable, TimeoutAdjustable) {
  NeighborTable t(sec(30.0));
  t.upsert(1, {0, 0}, Joules{1.0}, sec(0.0));
  t.set_timeout(sec(100.0));
  EXPECT_TRUE(t.find(1, sec(90.0)).has_value());
}

/// Every stored entry, expired ones included, in storage order.
std::vector<NeighborInfo> stored_entries(const NeighborTable& table) {
  std::vector<NeighborInfo> out;
  for (std::size_t k = 0; k < table.size(); ++k) {
    out.push_back(table.entry(k));
  }
  return out;
}

TEST(NeighborTable, MatchesMapReferenceUnderInterleavedOps) {
  // Differential check of the id-column block against a std::map
  // reference: random upserts (inserts and refreshes), finds and purges
  // over an id space of 200, with the clock advancing so entries expire.
  // The clock alternates between slow phases, in which the table fills
  // past several capacity doublings, and fast ones, in which purges empty
  // it. Every 97th step the table is rebuilt from its own entries through
  // restore_entries, and a second table restored from them must match.
  const sim::Time timeout = sec(30.0);
  NeighborTable table(timeout);
  std::map<NodeId, NeighborInfo> reference;
  const auto expired = [&](const NeighborInfo& info, sim::Time now) {
    return now - info.last_heard > timeout;
  };
  std::uint64_t x = 20240611;
  const auto rnd = [&x] {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    return x >> 33;
  };
  std::int64_t ticks = 0;
  std::size_t peak = 0;
  for (int step = 0; step < 8000; ++step) {
    const bool slow = (step / 1000) % 2 == 0;
    ticks += static_cast<std::int64_t>(rnd() % (slow ? 20'000 : 2'000'000));
    const sim::Time now = sim::Time::from_ticks(ticks);
    const auto id = static_cast<NodeId>(rnd() % 200);
    switch (rnd() % 5) {
      case 0:
      case 1: {
        const geom::Vec2 pos{static_cast<double>(rnd() % 1000), 1.0};
        const Joules energy{static_cast<double>(rnd() % 100)};
        table.upsert(id, pos, energy, now);
        reference[id] = NeighborInfo{id, pos, energy, now};
        break;
      }
      case 2:
      case 3: {
        const auto got = table.find(id, now);
        const auto it = reference.find(id);
        const bool want = it != reference.end() && !expired(it->second, now);
        ASSERT_EQ(got.has_value(), want) << "step " << step << " id " << id;
        if (want) {
          EXPECT_EQ(got->position, it->second.position);
          EXPECT_EQ(got->last_heard, it->second.last_heard);
        }
        break;
      }
      default:
        table.purge(now);
        std::erase_if(reference,
                      [&](const auto& kv) { return expired(kv.second, now); });
        break;
    }
    const std::vector<NeighborInfo> entries = stored_entries(table);
    ASSERT_EQ(entries.size(), reference.size()) << "step " << step;
    ASSERT_TRUE(std::is_sorted(entries.begin(), entries.end(),
                               [](const NeighborInfo& a,
                                  const NeighborInfo& b) {
                                 return a.id < b.id;
                               }));
    auto it = reference.begin();
    for (const NeighborInfo& info : entries) {
      ASSERT_EQ(info.id, it->first);
      ASSERT_EQ(info.residual_energy.value(),
                it->second.residual_energy.value());
      ASSERT_EQ(info.position, it->second.position);
      ASSERT_EQ(info.last_heard, it->second.last_heard);
      ++it;
    }
    peak = std::max(peak, entries.size());
    if (step % 97 == 0) {
      NeighborTable restored(timeout);
      restored.restore_entries(entries);
      const std::vector<NeighborInfo> again = stored_entries(restored);
      ASSERT_EQ(again.size(), entries.size()) << "step " << step;
      for (std::size_t k = 0; k < again.size(); ++k) {
        ASSERT_EQ(again[k].id, entries[k].id);
        ASSERT_EQ(again[k].position, entries[k].position);
        ASSERT_EQ(again[k].residual_energy.value(),
                  entries[k].residual_energy.value());
        ASSERT_EQ(again[k].last_heard, entries[k].last_heard);
      }
      // The table continues on its own restored copy.
      table.restore_entries(entries);
    }
    std::vector<NodeId> live;
    for (const NeighborInfo& info : table.snapshot(now)) {
      live.push_back(info.id);
    }
    std::vector<NodeId> want_live;
    for (const auto& [rid, info] : reference) {
      if (!expired(info, now)) want_live.push_back(rid);
    }
    ASSERT_EQ(live, want_live) << "step " << step;
  }
  // Past the 4 -> 8 -> 16 -> 32 -> 64 doublings.
  EXPECT_GT(peak, 64u);
}

TEST(FlowTable, GetOrCreateInitializesFromHeader) {
  FlowTable t;
  DataBody d;
  d.flow_id = 9;
  d.source = 1;
  d.destination = 5;
  d.strategy = StrategyId::kMaxLifetime;
  FlowEntry& e = t.get_or_create(d);
  EXPECT_EQ(e.id, 9u);
  EXPECT_EQ(e.source, 1u);
  EXPECT_EQ(e.destination, 5u);
  EXPECT_EQ(e.strategy, StrategyId::kMaxLifetime);
  EXPECT_EQ(e.prev, kInvalidNode);
  EXPECT_EQ(e.next, kInvalidNode);
}

TEST(FlowTable, GetOrCreateIsIdempotent) {
  FlowTable t;
  DataBody d;
  d.flow_id = 9;
  d.source = 1;
  d.destination = 5;
  FlowEntry& e1 = t.get_or_create(d);
  e1.next = 3;
  FlowEntry& e2 = t.get_or_create(d);
  EXPECT_EQ(&e1, &e2);
  EXPECT_EQ(e2.next, 3u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(FlowTable, FindReturnsNullWhenAbsent) {
  FlowTable t;
  EXPECT_EQ(t.find(1), nullptr);
  const FlowTable& ct = t;
  EXPECT_EQ(ct.find(1), nullptr);
}

TEST(FlowTable, EnsureCreatesBareEntry) {
  FlowTable t;
  FlowEntry& e = t.ensure(4);
  EXPECT_EQ(e.id, 4u);
  EXPECT_EQ(t.find(4), &e);
}

TEST(FlowTable, EraseRemoves) {
  FlowTable t;
  t.ensure(4);
  t.erase(4);
  EXPECT_EQ(t.find(4), nullptr);
  EXPECT_EQ(t.size(), 0u);
}

TEST(FlowTable, AllListsEveryEntry) {
  FlowTable t;
  t.ensure(1);
  t.ensure(2);
  t.ensure(3);
  EXPECT_EQ(t.all().size(), 3u);
}

}  // namespace
}  // namespace imobif::net
