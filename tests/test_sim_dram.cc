/**
 * @file
 * Tests for the DRAM controller model, including the differential
 * check of the row-segment controller against the per-burst oracle
 * (dram_per_burst_oracle.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "arch/config.h"
#include "arch/isa.h"
#include "arch/ndp_engine.h"
#include "common/rng.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"
#include "dram/dram_controller.h"
#include "dram_per_burst_oracle.h"
#include "nn/optimizer.h"

namespace cq {
namespace {

// ---------------------------------------------------------------- DRAM

TEST(Dram, PeakBandwidthMatchesSpec)
{
    const dram::DramConfig cfg = dram::DramConfig::lpddr4_2133();
    // 64 B / 3.75 ticks = 17.06 GB/s at 1 GHz ticks.
    EXPECT_NEAR(cfg.peakBytesPerTick(), 17.06, 0.05);
}

TEST(Dram, SequentialStreamApproachesPeak)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    const Bytes bytes = 8 << 20; // 8 MiB
    const Tick done = ctrl.transfer(0, 0, bytes, false);
    const double achieved =
        static_cast<double>(bytes) / static_cast<double>(done);
    // Row misses every 2 KiB cost a little; expect > 90% of peak.
    EXPECT_GT(achieved, 0.9 * ctrl.config().peakBytesPerTick());
    EXPECT_LE(achieved, ctrl.config().peakBytesPerTick() + 0.01);
}

TEST(Dram, RowHitsDominateSequential)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    ctrl.transfer(0, 0, 1 << 20, false);
    const double hits = ctrl.stats().get("dram.rowHits");
    const double misses = ctrl.stats().get("dram.rowMisses");
    // 2 KiB rows, 64 B bursts -> 31 hits per miss, minus the rows
    // that periodic refresh closes mid-stream.
    EXPECT_NEAR(hits / misses, 31.0, 1.5);
}

TEST(Dram, RandomAccessSlowerThanSequential)
{
    dram::DramController seq(dram::DramConfig::lpddr4_2133());
    dram::DramController rnd(dram::DramConfig::lpddr4_2133());

    const Tick t_seq = seq.transfer(0, 0, 256 * 64, false);

    Tick t = 0;
    for (int i = 0; i < 256; ++i) {
        // Jump rows within one bank: worst-case locality.
        const Addr addr = static_cast<Addr>(i) * 8 * 2048;
        t = rnd.transfer(t, addr, 64, false);
    }
    EXPECT_GT(t, 2 * t_seq);
}

TEST(Dram, WritesCountedSeparately)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    ctrl.transfer(0, 0, 4096, true);
    EXPECT_EQ(ctrl.stats().get("dram.writes"), 64.0);
    EXPECT_EQ(ctrl.stats().get("dram.reads"), 0.0);
}

TEST(Dram, EnergyAccumulates)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    EXPECT_EQ(ctrl.dynamicEnergy(), 0.0);
    ctrl.transfer(0, 0, 64 * 1024, false);
    const PicoJoule after_read = ctrl.dynamicEnergy();
    EXPECT_GT(after_read, 0.0);
    ctrl.transfer(ctrl.busFreeAt(), 1 << 24, 64 * 1024, true);
    EXPECT_GT(ctrl.dynamicEnergy(), after_read);
}

TEST(Dram, StandbyEnergyScalesWithTime)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    EXPECT_DOUBLE_EQ(ctrl.standbyEnergy(2000),
                     2.0 * ctrl.standbyEnergy(1000));
}

TEST(Dram, EarliestStartRespected)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    const Tick done = ctrl.transfer(100000, 0, 64, false);
    EXPECT_GE(done, 100000u);
}

TEST(Dram, ScaledChannelsFaster)
{
    dram::DramController one(dram::DramConfig::lpddr4_2133());
    dram::DramController four(dram::DramConfig::scaled(4));
    const Bytes bytes = 4 << 20;
    const Tick t1 = one.transfer(0, 0, bytes, false);
    const Tick t4 = four.transfer(0, 0, bytes, false);
    EXPECT_LT(3 * t4, t1); // close to 4x faster
}

TEST(Dram, ResetClearsState)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    ctrl.transfer(0, 0, 4096, false);
    ctrl.reset();
    EXPECT_EQ(ctrl.dynamicEnergy(), 0.0);
    EXPECT_EQ(ctrl.busBytes(), 0u);
    EXPECT_EQ(ctrl.busFreeAt(), 0u);
}

// ------------------------------------------------------- row segments

TEST(DramSegments, TransferInsideOneRowIsOneSegment)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    const Bytes row = ctrl.config().rowBytes;
    ctrl.transfer(0, row, row, false); // exactly the second row
    EXPECT_EQ(ctrl.stats().get("dram.segments"), 1.0);
    EXPECT_EQ(ctrl.stats().get("dram.reads"),
              static_cast<double>(row / ctrl.config().burstBytes));
}

TEST(DramSegments, TransferAcrossRowBoundaryIsTwoSegments)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    const Bytes row = ctrl.config().rowBytes;
    ctrl.transfer(0, row - 64, 128, true); // last burst + first burst
    EXPECT_EQ(ctrl.stats().get("dram.segments"), 2.0);
    EXPECT_EQ(ctrl.stats().get("dram.writes"), 2.0);
}

TEST(DramSegments, RefreshInsideSegmentAddsOne)
{
    // The same one-row transfer, once well before the first refresh
    // and once straddling it: the refresh splits the row's bursts.
    const dram::DramConfig cfg = dram::DramConfig::lpddr4_2133();
    dram::DramController early(cfg);
    early.transfer(0, 0, cfg.rowBytes, false);
    EXPECT_EQ(early.stats().get("dram.refreshes"), 0.0);
    EXPECT_EQ(early.stats().get("dram.segments"), 1.0);

    dram::DramController straddling(cfg);
    straddling.transfer(cfg.tREFI - 60, 0, cfg.rowBytes, false);
    EXPECT_EQ(straddling.stats().get("dram.refreshes"), 1.0);
    EXPECT_EQ(straddling.stats().get("dram.segments"), 2.0);
}

// ---------------------------------------------------------------- NDP path

TEST(DramNdp, UpdateCheaperThanExplicitTraffic)
{
    // In-place NDP update vs moving w/m/v + dW through the bus.
    const std::size_t weights = 1 << 20;

    dram::DramController ndp(dram::DramConfig::lpddr4_2133());
    const Tick t_ndp = ndp.ndpUpdate(0, 0, weights, 4);

    dram::DramController exp(dram::DramConfig::lpddr4_2133());
    Tick t = 0;
    // Read dW, w, m; write w, m (RMSProp): 20 B per weight.
    t = exp.transfer(t, 0x00000000, weights * 4, false);
    t = exp.transfer(t, 0x10000000, weights * 4, false);
    t = exp.transfer(t, 0x20000000, weights * 4, false);
    t = exp.transfer(t, 0x10000000, weights * 4, true);
    t = exp.transfer(t, 0x20000000, weights * 4, true);

    EXPECT_LT(t_ndp, t / 3);
    // Bus bytes: only gradients cross for NDP.
    EXPECT_EQ(ndp.busBytes(), weights * 4);
    EXPECT_EQ(exp.busBytes(), weights * 20);
}

TEST(DramNdp, ProtocolCommandCounts)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    // One row group: 512 4-byte weights fill a 2 KiB row.
    ctrl.ndpUpdate(0, 0, 512, 4);
    // 3 ACT + 3 PRE per row group (w, m, v rows).
    EXPECT_EQ(ctrl.stats().get("dram.activates"), 3.0);
    EXPECT_EQ(ctrl.stats().get("dram.precharges"), 3.0);
    EXPECT_EQ(ctrl.stats().get("dram.ndpRowGroups"), 1.0);
    EXPECT_EQ(ctrl.stats().get("dram.ndpElements"), 512.0);
}

TEST(DramNdp, MultiRowGroups)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    ctrl.ndpUpdate(0, 0, 2048, 4); // four row groups
    EXPECT_EQ(ctrl.stats().get("dram.ndpRowGroups"), 4.0);
    EXPECT_EQ(ctrl.stats().get("dram.activates"), 12.0);
    // Each group's gradient writes are one row segment.
    EXPECT_EQ(ctrl.stats().get("dram.segments"), 4.0);
}


TEST(Dram, RefreshesIssuedPeriodically)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    // Stream long enough to cross several tREFI boundaries.
    Tick t = 0;
    for (int i = 0; i < 100; ++i)
        t = ctrl.transfer(t, static_cast<Addr>(i) * 4096, 4096, false);
    const double refreshes = ctrl.stats().get("dram.refreshes");
    EXPECT_GE(refreshes,
              static_cast<double>(t / ctrl.config().tREFI) - 1.0);
}

TEST(Dram, RefreshDisableRestoresThroughput)
{
    dram::DramConfig no_ref = dram::DramConfig::lpddr4_2133();
    no_ref.refreshEnabled = false;
    dram::DramController with(dram::DramConfig::lpddr4_2133());
    dram::DramController without(no_ref);
    const Bytes bytes = 4 << 20;
    const Tick t_with = with.transfer(0, 0, bytes, false);
    const Tick t_without = without.transfer(0, 0, bytes, false);
    EXPECT_GT(t_with, t_without);
    // Overhead roughly tRFC / tREFI (~7%).
    EXPECT_LT(static_cast<double>(t_with),
              1.12 * static_cast<double>(t_without));
}

// ------------------------------------------------------------ error paths

TEST(DramDeath, TransferBeyondCapacityPanics)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    const Bytes capacity = ctrl.config().capacityBytes;
    EXPECT_DEATH(ctrl.transfer(0, capacity, 64, false),
                 "exceeds DRAM capacity");
    // A range that starts in bounds but runs off the end must also die
    // (guards the overflow-safe form of the check).
    EXPECT_DEATH(ctrl.transfer(0, capacity - 32, 64, false),
                 "exceeds DRAM capacity");
}

TEST(DramDeath, ZeroByteTransferPanics)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    EXPECT_DEATH(ctrl.transfer(0, 0, 0, false), "zero-byte read");
    EXPECT_DEATH(ctrl.transfer(0, 64, 0, true), "zero-byte write");
}

TEST(DramDeath, NdpUpdateErrorPaths)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    EXPECT_DEATH(ctrl.ndpUpdate(0, 0, 0, 4), "zero-element NDP update");
    EXPECT_DEATH(ctrl.ndpUpdate(0, 0, 16, 0), "outside \\(0, rowBytes");
    EXPECT_DEATH(ctrl.ndpUpdate(0, 0, 16, ctrl.config().rowBytes + 1),
                 "outside \\(0, rowBytes");
    const Bytes capacity = ctrl.config().capacityBytes;
    EXPECT_DEATH(ctrl.ndpUpdate(0, capacity - 64, 512, 4),
                 "exceeds DRAM capacity");
}

TEST(Dram, InRangeEdgesAccepted)
{
    // The last addressable bytes of the last channel must be usable:
    // the codegen places tensors at region bases (r << 32), so an
    // off-by-one in the capacity check would fire on real programs.
    dram::DramConfig cfg = dram::DramConfig::lpddr4_2133();
    dram::DramController ctrl(cfg);
    const Bytes capacity =
        cfg.capacityBytes * static_cast<Bytes>(cfg.channels);
    EXPECT_GT(ctrl.transfer(0, capacity - 64, 64, false), 0u);
    EXPECT_GT(ctrl.ndpUpdate(0, capacity - 512 * 4, 512, 4), 0u);
}

TEST(NdpEngineDeath, WgstoreBeforeCrosetPanics)
{
    arch::NdpEngine ndp;
    std::vector<float> w(4), m(4), v(4), g(4);
    EXPECT_DEATH(ndp.weightGradientStore(w, m, v, g),
                 "WGSTORE before CROSET");
}

TEST(NdpEngineDeath, MismatchedRowSizesPanic)
{
    arch::NdpEngine ndp;
    ndp.configure(nn::NdpoConstants::fromConfig(nn::OptimizerConfig{}));
    std::vector<float> w(4), m(4), v(4), g(3);
    EXPECT_DEATH(ndp.weightGradientStore(w, m, v, g),
                 "w/m/v/g row sizes differ: w=4 m=4 v=4 g=3");
    std::vector<float> m_short(2), g4(4);
    EXPECT_DEATH(ndp.weightGradientStore(w, m_short, v, g4),
                 "w/m/v/g row sizes differ");
}

TEST(DramDeath, NonPowerOfTwoGeometryPanics)
{
    dram::DramConfig banks = dram::DramConfig::lpddr4_2133();
    banks.numBanks = 6;
    EXPECT_DEATH(dram::DramController{banks},
                 "DramConfig::numBanks = 6 is not a power of two");
    EXPECT_DEATH(dram::DramController{dram::DramConfig::scaled(3)},
                 "DramConfig::channels = 3 is not a power of two");
    dram::DramConfig rows = dram::DramConfig::lpddr4_2133();
    rows.rowBytes = 3000;
    EXPECT_DEATH(dram::DramController{rows},
                 "DramConfig::rowBytes = 3000 is not a power of two");
    dram::DramConfig bursts = dram::DramConfig::lpddr4_2133();
    bursts.burstBytes = 48;
    EXPECT_DEATH(dram::DramController{bursts},
                 "DramConfig::burstBytes = 48 is not a power of two");
}

TEST(DramDeath, ZeroTickBurstPanics)
{
    // tBurst = 1 would make the short fractional burst 0 ticks long.
    dram::DramConfig cfg = dram::DramConfig::lpddr4_2133();
    cfg.tBurst = 1;
    EXPECT_DEATH(dram::DramController{cfg},
                 "DramConfig::tBurst = 1 leaves a burst without a data");
    cfg.fractionalBurst = false;
    EXPECT_EQ(dram::DramController{cfg}.transfer(0, 0, 64, false),
              cfg.tRCD + cfg.tCAS + 1);
}

TEST(Dram, RefreshClosesOpenRows)
{
    dram::DramController ctrl(dram::DramConfig::lpddr4_2133());
    ctrl.transfer(0, 0, 64, false); // opens a row
    const double misses0 = ctrl.stats().get("dram.rowMisses");
    // Access the same row again *after* a refresh boundary: the row
    // was closed by the refresh, so this is another miss.
    ctrl.transfer(2 * ctrl.config().tREFI, 0, 64, false);
    EXPECT_GT(ctrl.stats().get("dram.rowMisses"), misses0);
}

// ------------------------------------- row segments vs per-burst oracle

const std::array<const char *, 10> kDramCounters = {
    "dram.activates",  "dram.precharges",  "dram.reads",
    "dram.writes",     "dram.rowHits",     "dram.rowMisses",
    "dram.busBytes",   "dram.ndpElements", "dram.ndpRowGroups",
    "dram.refreshes"};

/** Bus, counters and energy of @p fast equal @p ref's, bit for bit. */
::testing::AssertionResult
sameState(const dram::DramController &fast,
          const dram::oracle::PerBurstDram &ref)
{
    if (fast.busFreeAt() != ref.busFreeAt()) {
        return ::testing::AssertionFailure()
               << "busFreeAt " << fast.busFreeAt() << " vs "
               << ref.busFreeAt();
    }
    if (fast.busBytes() != ref.busBytes()) {
        return ::testing::AssertionFailure()
               << "busBytes " << fast.busBytes() << " vs "
               << ref.busBytes();
    }
    const StatGroup a = fast.stats();
    const StatGroup b = ref.stats();
    for (const char *name : kDramCounters) {
        if (a.get(name) != b.get(name)) {
            return ::testing::AssertionFailure()
                   << name << " " << a.get(name) << " vs "
                   << b.get(name);
        }
    }
    if (std::bit_cast<std::uint64_t>(fast.dynamicEnergy()) !=
        std::bit_cast<std::uint64_t>(ref.dynamicEnergy())) {
        return ::testing::AssertionFailure()
               << "dynamicEnergy " << fast.dynamicEnergy() << " vs "
               << ref.dynamicEnergy();
    }
    return ::testing::AssertionSuccess();
}

/** A random power-of-two geometry with random timings. */
dram::DramConfig
randomDramConfig(Rng &rng)
{
    dram::DramConfig cfg;
    const unsigned channels[] = {1, 2, 4, 16};
    cfg.channels = channels[rng.below(4)];
    cfg.numBanks = std::size_t{1} << rng.below(5);
    cfg.burstBytes = Bytes{16} << rng.below(4);
    cfg.rowBytes = cfg.burstBytes << rng.below(6);
    cfg.fractionalBurst = rng.below(2) == 0;
    cfg.tBurst = (cfg.fractionalBurst ? 2 : 1) + rng.below(8);
    cfg.tRCD = rng.below(20);
    cfg.tRP = rng.below(20);
    cfg.tCAS = rng.below(20);
    cfg.tRAS = rng.below(40);
    cfg.tCmd = rng.below(3);
    cfg.refreshEnabled = rng.below(4) != 0;
    // Mostly short refresh intervals, so refreshes split many
    // segments; sometimes shorter than a row's worth of bursts.
    cfg.tREFI = rng.below(3) == 0 ? 3900 : 20 + rng.below(600);
    // tRFC below tREFI / 2, as in real parts: a longer one lets
    // refreshes fall due faster than they complete.
    cfg.tRFC = 1 + rng.below(cfg.tREFI / 2);
    return cfg;
}

TEST(DramDifferential, RowSegmentsMatchPerBurstOracleBitwise)
{
    Rng rng(2021);
    std::size_t ops = 0;
    std::size_t refreshes = 0;
    for (int c = 0; c < 400; ++c) {
        const dram::DramConfig cfg = randomDramConfig(rng);
        dram::DramController fast(cfg);
        dram::oracle::PerBurstDram ref(cfg);
        // A window a few rows wide in every bank, so streams, row
        // conflicts and repeated rows all occur.
        const Addr window = cfg.rowBytes * cfg.numBanks *
                            cfg.channels * (1 + rng.below(4));
        Tick now = 0;
        Tick last_done = 0;
        for (int i = 0; i < 250; ++i, ++ops) {
            // Nondecreasing start ticks: shared (like SLOAD stripes),
            // just after the bus frees, after the last completion, or
            // after an idle gap.
            switch (rng.below(4)) {
              case 0:
                break;
              case 1:
                now = std::max(now, ref.busFreeAt());
                break;
              case 2:
                now = std::max(now, last_done);
                break;
              default:
                now += rng.below(2 * cfg.tREFI);
                break;
            }
            const Addr addr = rng.below(window);
            Tick got;
            Tick want;
            if (rng.below(5) == 0) {
                const Bytes elem = 1 + rng.below(8);
                const std::size_t elems =
                    1 + rng.below(3 * cfg.rowBytes / elem);
                got = fast.ndpUpdate(now, addr, elems, elem);
                want = ref.ndpUpdate(now, addr, elems, elem);
            } else {
                const Bytes bytes =
                    rng.below(4) == 0
                        ? 1 + rng.below(2 * cfg.burstBytes)
                        : 1 + rng.below(3 * cfg.rowBytes);
                const bool is_write = rng.below(2) == 0;
                got = fast.transfer(now, addr, bytes, is_write);
                want = ref.transfer(now, addr, bytes, is_write);
            }
            last_done = want;
            ASSERT_EQ(got, want) << "config " << c << " op " << i;
            ASSERT_TRUE(sameState(fast, ref))
                << "config " << c << " op " << i;
        }
        refreshes +=
            static_cast<std::size_t>(ref.stats().get("dram.refreshes"));
    }
    EXPECT_EQ(ops, 100000u);
    EXPECT_GT(refreshes, 1000u); // the refresh split was exercised
}

TEST(Dram, DynamicEnergyEqualsCountersTimesCosts)
{
    dram::DramConfig cfg = dram::DramConfig::scaled(4);
    cfg.tREFI = 500; // many refreshes
    dram::DramController ctrl(cfg);
    Rng rng(9);
    Tick t = 0;
    for (int i = 0; i < 200; ++i) {
        const Addr addr = rng.below(1 << 20);
        switch (i % 3) {
          case 0:
            t = ctrl.transfer(t, addr, 1 + rng.below(8192), false);
            break;
          case 1:
            t = ctrl.transfer(t, addr, 1 + rng.below(8192), true);
            break;
          default:
            t = ctrl.ndpUpdate(t, addr, 1 + rng.below(1024), 4);
            break;
        }
    }
    const StatGroup st = ctrl.stats();
    EXPECT_GT(st.get("dram.refreshes"), 10.0);
    EXPECT_GT(st.get("dram.ndpElements"), 0.0);
    EXPECT_GT(st.get("dram.reads"), 0.0);
    EXPECT_GT(st.get("dram.writes"), 0.0);
    const PicoJoule expected =
        st.get("dram.activates") * cfg.eActPre +
        st.get("dram.reads") * cfg.eReadBurst +
        st.get("dram.writes") * cfg.eWriteBurst +
        st.get("dram.ndpElements") * cfg.eNdpPerElement +
        st.get("dram.refreshes") * cfg.eRefresh * cfg.channels;
    EXPECT_EQ(ctrl.dynamicEnergy(), expected);
}

/** Replay @p prog's memory instructions with the executor's mapping. */
template <typename Dram>
std::vector<Tick>
replayProgram(const arch::Program &prog, Dram &dram)
{
    using arch::Opcode;
    std::vector<Tick> ticks;
    for (const arch::Instr &ins : prog) {
        const Tick now = dram.busFreeAt();
        switch (ins.op) {
          case Opcode::VLOAD:
          case Opcode::QLOAD:
            ticks.push_back(dram.transfer(now, ins.addr, ins.bytes, false));
            break;
          case Opcode::VSTORE:
          case Opcode::QSTORE:
            ticks.push_back(dram.transfer(now, ins.addr, ins.bytes, true));
            break;
          case Opcode::SLOAD:
          case Opcode::SSTORE: {
            const std::uint64_t stripes =
                std::max<std::uint64_t>(ins.elems, 1);
            const Bytes per_stripe =
                std::max<Bytes>(ins.bytes / stripes, 1);
            for (std::uint64_t i = 0; i < stripes; ++i) {
                ticks.push_back(dram.transfer(
                    now, ins.addr + i * ins.bytes2, per_stripe,
                    ins.op == Opcode::SSTORE));
            }
            break;
          }
          case Opcode::QMOVE:
            ticks.push_back(dram.transfer(now, ins.addr, ins.bytes, false));
            ticks.push_back(
                dram.transfer(now + 1, ins.addr2, ins.bytes2, true));
            break;
          case Opcode::WGSTORE:
            ticks.push_back(dram.ndpUpdate(now, ins.addr, ins.elems, 4));
            break;
          default:
            break;
        }
    }
    return ticks;
}

TEST(DramDifferential, TinyProgramsReplayTickExact)
{
    const std::pair<const char *, compiler::WorkloadIR> nets[] = {
        {"tiny_cnn", compiler::buildTinyCnn()},
        {"tiny_mlp", compiler::buildTinyMlp()}};
    const std::pair<const char *, arch::CambriconQConfig> configs[] = {
        {"edge", arch::CambriconQConfig::edge()},
        {"edge_no_ndp", arch::CambriconQConfig::edgeNoNdp()}};
    for (const auto &[net, ir] : nets) {
        for (const auto &[name, cfg] : configs) {
            SCOPED_TRACE(std::string(net) + " on " + name);
            const arch::Program prog = compiler::generateProgram(
                ir, cfg, compiler::CodegenOptions{});
            dram::DramController fast(cfg.dram);
            dram::oracle::PerBurstDram ref(cfg.dram);
            const std::vector<Tick> got = replayProgram(prog, fast);
            const std::vector<Tick> want = replayProgram(prog, ref);
            EXPECT_FALSE(want.empty());
            EXPECT_EQ(got, want);
            EXPECT_TRUE(sameState(fast, ref));
        }
    }
}

} // namespace
} // namespace cq
