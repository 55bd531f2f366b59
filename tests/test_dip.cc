/**
 * @file
 * Unit tests for BIP and DIP (the pre-RRIP insertion-policy family).
 */

#include <gtest/gtest.h>

#include "replacement/dip.hh"
#include "test_helpers.hh"

namespace cachescope {
namespace {

using test::smallGeometry;

TEST(Bip, MostInsertionsGoToLruPosition)
{
    BipPolicy bip(smallGeometry(1, 4));
    // Fill ways 0..3, then fill way 0 again with a fresh block (LRU
    // insertion): it must remain the next victim.
    for (std::uint32_t w = 0; w < 4; ++w)
        bip.update(0, w, 0, w, AccessType::Load, false);
    EXPECT_EQ(bip.findVictim(0, 0, 9, AccessType::Load), 0u);
    bip.update(0, 0, 0, 100, AccessType::Load, false);
    EXPECT_EQ(bip.findVictim(0, 0, 9, AccessType::Load), 0u);
}

TEST(Bip, EpsilonFillGoesToMru)
{
    BipPolicy bip(smallGeometry(1, 2));
    // The kEpsilon-th fill lands at MRU. Drive 32 fills into way 0 and
    // make way 1 young via a hit; the 32nd fill is MRU so way 1 (hit
    // earlier) becomes older than way 0's timestamp at some point.
    bip.update(0, 1, 0, 500, AccessType::Load, false); // fill 1: LRU pos
    bip.update(0, 1, 0, 500, AccessType::Load, true);  // make way 1 young
    for (std::uint32_t i = 0; i < BipPolicy::kEpsilon - 2; ++i)
        bip.update(0, 0, 0, i, AccessType::Load, false);
    // Next fill is number kEpsilon: inserted at MRU.
    bip.update(0, 0, 0, 999, AccessType::Load, false);
    EXPECT_EQ(bip.findVictim(0, 0, 9, AccessType::Load), 1u);
}

TEST(Bip, HitsPromoteToMru)
{
    BipPolicy bip(smallGeometry(1, 2));
    bip.update(0, 0, 0, 1, AccessType::Load, false);
    bip.update(0, 1, 0, 2, AccessType::Load, false);
    bip.update(0, 0, 0, 1, AccessType::Load, true);
    EXPECT_EQ(bip.findVictim(0, 0, 9, AccessType::Load), 1u);
}

TEST(Dip, LeaderRolesPartitionSets)
{
    DipPolicy dip({2048, 11, 64});
    int lru = 0, bip = 0, followers = 0;
    for (std::uint32_t s = 0; s < 2048; ++s) {
        switch (dip.roleOf(s)) {
          case DipPolicy::SetRole::StaticLeader: ++lru; break;
          case DipPolicy::SetRole::BimodalLeader: ++bip; break;
          case DipPolicy::SetRole::Follower: ++followers; break;
        }
    }
    EXPECT_EQ(lru, 32);
    EXPECT_EQ(bip, 32);
    EXPECT_EQ(followers, 2048 - 64);
}

TEST(Dip, PselTracksLeaderMisses)
{
    DipPolicy dip({2048, 4, 64});
    const std::uint32_t initial = dip.psel();
    std::uint32_t lru_leader = 0, bip_leader = 0;
    for (std::uint32_t s = 0; s < 2048; ++s) {
        if (dip.roleOf(s) == DipPolicy::SetRole::StaticLeader)
            lru_leader = s;
        if (dip.roleOf(s) == DipPolicy::SetRole::BimodalLeader)
            bip_leader = s;
    }
    for (int i = 0; i < 100; ++i)
        dip.update(lru_leader, 0, 0, i, AccessType::Load, false);
    EXPECT_LT(dip.psel(), initial);
    for (int i = 0; i < 300; ++i)
        dip.update(bip_leader, 0, 0, 1000 + i, AccessType::Load, false);
    EXPECT_GT(dip.psel(), initial);
}

TEST(Dip, RegisteredInFactory)
{
    EXPECT_TRUE(ReplacementPolicyFactory::isRegistered("dip"));
    EXPECT_TRUE(ReplacementPolicyFactory::isRegistered("bip"));
    auto policy = ReplacementPolicyFactory::create("dip",
                                                   smallGeometry(64, 8));
    EXPECT_EQ(policy->name(), "dip");
}

TEST(Dip, LruModeBehavesLikeLru)
{
    // Saturate PSEL toward "LRU wins" and verify follower sets promote
    // fills to MRU (classic LRU behaviour).
    DipPolicy dip({2048, 2, 64});
    std::uint32_t bip_leader = 0, follower = 1;
    for (std::uint32_t s = 0; s < 2048; ++s) {
        if (dip.roleOf(s) == DipPolicy::SetRole::BimodalLeader)
            bip_leader = s;
        if (dip.roleOf(s) == DipPolicy::SetRole::Follower)
            follower = s;
    }
    for (std::uint32_t i = 0; i < DipPolicy::kPselMax; ++i)
        dip.update(bip_leader, 0, 0, i, AccessType::Load, false);

    dip.update(follower, 0, 0, 1, AccessType::Load, false);
    dip.update(follower, 1, 0, 2, AccessType::Load, false);
    // Way 0 filled first = LRU under MRU insertion.
    EXPECT_EQ(dip.findVictim(follower, 0, 9, AccessType::Load), 0u);
}

} // namespace
} // namespace cachescope
