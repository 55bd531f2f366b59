/**
 * @file
 * Unit tests for the RRIP family: SRRIP insertion/aging/promotion,
 * BRRIP's bimodal insertion, DRRIP's set dueling.
 */

#include <gtest/gtest.h>

#include "replacement/rrip.hh"
#include "test_helpers.hh"

namespace cachescope {
namespace {

using test::smallGeometry;

TEST(Srrip, InsertsWithLongInterval)
{
    SrripPolicy srrip(smallGeometry(1, 4));
    srrip.update(0, 0, 0, 10, AccessType::Load, false);
    EXPECT_EQ(srrip.rrpvOf(0, 0), RripBase::kMaxRrpv - 1);
}

TEST(Srrip, HitPromotesToZero)
{
    SrripPolicy srrip(smallGeometry(1, 4));
    srrip.update(0, 2, 0, 10, AccessType::Load, false);
    srrip.update(0, 2, 0, 10, AccessType::Load, true);
    EXPECT_EQ(srrip.rrpvOf(0, 2), 0);
}

TEST(Srrip, VictimIsDistantLine)
{
    SrripPolicy srrip(smallGeometry(1, 4));
    // Initial RRPVs are all max: way 0 wins the tie.
    EXPECT_EQ(srrip.findVictim(0, 0, 1, AccessType::Load), 0u);

    for (std::uint32_t w = 0; w < 4; ++w)
        srrip.update(0, w, 0, w, AccessType::Load, false); // all at 2
    srrip.update(0, 1, 0, 1, AccessType::Load, true);      // way 1 -> 0

    // No line at max: aging brings ways 0,2,3 (rrpv 2) to 3 first.
    const std::uint32_t v = srrip.findVictim(0, 0, 9, AccessType::Load);
    EXPECT_EQ(v, 0u);
    // Aging must not have pushed way 1 to max.
    EXPECT_LT(srrip.rrpvOf(0, 1), RripBase::kMaxRrpv);
}

TEST(Srrip, AgingPreservesOrder)
{
    SrripPolicy srrip(smallGeometry(1, 2));
    srrip.update(0, 0, 0, 0, AccessType::Load, false);
    srrip.update(0, 1, 0, 1, AccessType::Load, false);
    srrip.update(0, 0, 0, 0, AccessType::Load, true); // way 0 -> 0
    EXPECT_EQ(srrip.findVictim(0, 0, 9, AccessType::Load), 1u);
    // After the search aged the set, way 0 is still younger.
    EXPECT_LT(srrip.rrpvOf(0, 0), srrip.rrpvOf(0, 1));
}

TEST(Brrip, MostlyInsertsDistant)
{
    BrripPolicy brrip(smallGeometry(1, 4));
    int distant = 0, lon = 0;
    for (int i = 0; i < 256; ++i) {
        brrip.update(0, static_cast<std::uint32_t>(i % 4), 0, i,
                     AccessType::Load, false);
        if (brrip.rrpvOf(0, i % 4) == RripBase::kMaxRrpv)
            ++distant;
        else
            ++lon;
    }
    // Exactly one in kEpsilon fills gets the long interval.
    EXPECT_EQ(lon, 256 / BrripPolicy::kEpsilon);
    EXPECT_EQ(distant, 256 - 256 / BrripPolicy::kEpsilon);
}

TEST(Drrip, LeaderSetsExistForBothPolicies)
{
    DrripPolicy drrip({2048, 11, 64});
    int srrip_leaders = 0, brrip_leaders = 0, followers = 0;
    for (std::uint32_t s = 0; s < 2048; ++s) {
        switch (drrip.roleOf(s)) {
          case DrripPolicy::SetRole::StaticLeader: ++srrip_leaders; break;
          case DrripPolicy::SetRole::BimodalLeader: ++brrip_leaders; break;
          case DrripPolicy::SetRole::Follower: ++followers; break;
        }
    }
    EXPECT_EQ(srrip_leaders, 32);
    EXPECT_EQ(brrip_leaders, 32);
    EXPECT_EQ(followers, 2048 - 64);
}

TEST(Drrip, PselMovesOnLeaderMisses)
{
    DrripPolicy drrip({2048, 4, 64});
    const std::uint32_t initial = drrip.psel();

    // Find one SRRIP leader set and miss in it repeatedly.
    std::uint32_t srrip_leader = 0;
    for (std::uint32_t s = 0; s < 2048; ++s) {
        if (drrip.roleOf(s) == DrripPolicy::SetRole::StaticLeader) {
            srrip_leader = s;
            break;
        }
    }
    for (int i = 0; i < 100; ++i)
        drrip.update(srrip_leader, 0, 0, i, AccessType::Load, false);
    EXPECT_LT(drrip.psel(), initial);

    std::uint32_t brrip_leader = 0;
    for (std::uint32_t s = 0; s < 2048; ++s) {
        if (drrip.roleOf(s) == DrripPolicy::SetRole::BimodalLeader) {
            brrip_leader = s;
            break;
        }
    }
    for (int i = 0; i < 300; ++i)
        drrip.update(brrip_leader, 0, 0, i, AccessType::Load, false);
    EXPECT_GT(drrip.psel(), initial);
}

TEST(Drrip, FollowersTrackWinningLeader)
{
    DrripPolicy drrip({2048, 4, 64});
    std::uint32_t follower = 0;
    for (std::uint32_t s = 0; s < 2048; ++s) {
        if (drrip.roleOf(s) == DrripPolicy::SetRole::Follower) {
            follower = s;
            break;
        }
    }

    // Bias PSEL high (BRRIP leaders miss a lot -> SRRIP wins).
    std::uint32_t brrip_leader = 0;
    for (std::uint32_t s = 0; s < 2048; ++s) {
        if (drrip.roleOf(s) == DrripPolicy::SetRole::BimodalLeader) {
            brrip_leader = s;
            break;
        }
    }
    for (std::uint32_t i = 0; i < DrripPolicy::kPselMax; ++i)
        drrip.update(brrip_leader, 0, 0, i, AccessType::Load, false);

    // Follower fills should now use SRRIP insertion (maxRrpv - 1).
    drrip.update(follower, 1, 0, 7, AccessType::Load, false);
    EXPECT_EQ(drrip.rrpvOf(follower, 1), RripBase::kMaxRrpv - 1);
}

TEST(Drrip, WritebackFillsDoNotTrainPsel)
{
    DrripPolicy drrip({2048, 4, 64});
    std::uint32_t srrip_leader = 0;
    for (std::uint32_t s = 0; s < 2048; ++s) {
        if (drrip.roleOf(s) == DrripPolicy::SetRole::StaticLeader) {
            srrip_leader = s;
            break;
        }
    }
    const std::uint32_t before = drrip.psel();
    for (int i = 0; i < 50; ++i)
        drrip.update(srrip_leader, 0, 0, i, AccessType::Writeback, false);
    EXPECT_EQ(drrip.psel(), before);
}

TEST(Drrip, TinyCacheEverySetIsLeader)
{
    // Fewer sets than 2 * kLeadersPerPolicy: stride clamps to 1 and the
    // first sets alternate roles.
    DrripPolicy drrip(smallGeometry(8, 4));
    EXPECT_EQ(drrip.roleOf(0), DrripPolicy::SetRole::StaticLeader);
    EXPECT_EQ(drrip.roleOf(1), DrripPolicy::SetRole::BimodalLeader);
    EXPECT_EQ(drrip.roleOf(2), DrripPolicy::SetRole::StaticLeader);
}

} // namespace
} // namespace cachescope
