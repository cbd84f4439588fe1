/**
 * @file
 * Tests of the architecture models: PE-array bit-serial datapath,
 * SQU timing, QBC requantization, NDP engine functional equivalence,
 * ISA helpers, end-to-end executor smoke tests, and the differential
 * check of the executor against the event-queue oracle
 * (accelerator_event_queue_oracle.h).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "accelerator_event_queue_oracle.h"
#include "arch/accelerator.h"
#include "arch/config.h"
#include "arch/isa.h"
#include "arch/ndp_engine.h"
#include "arch/pe_array.h"
#include "arch/qbc.h"
#include "arch/squ.h"
#include "baseline/tpu_sim.h"
#include "common/rng.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"
#include "nn/optimizer.h"

namespace cq::arch {
namespace {

// ---------------------------------------------------------------- PE array

TEST(PeArray, BitSerialMultiplyMatchesExact)
{
    Rng rng(1);
    for (int trial = 0; trial < 2000; ++trial) {
        const int bits_a = 4 << (trial % 3);      // 4, 8, 16
        const int bits_b = 4 << ((trial / 3) % 3);
        const std::int32_t max_a = (1 << (bits_a - 1)) - 1;
        const std::int32_t max_b = (1 << (bits_b - 1)) - 1;
        const std::int32_t a = static_cast<std::int32_t>(
            rng.below(2 * max_a + 1)) - max_a;
        const std::int32_t b = static_cast<std::int32_t>(
            rng.below(2 * max_b + 1)) - max_b;
        EXPECT_EQ(PeArray::bitSerialMultiply(a, bits_a, b, bits_b),
                  static_cast<std::int64_t>(a) * b)
            << a << " * " << b << " @ " << bits_a << "x" << bits_b;
    }
}

TEST(PeArray, BitSerialHandles12Bit)
{
    EXPECT_EQ(PeArray::bitSerialMultiply(2047, 12, -2047, 12),
              -2047ll * 2047);
}

TEST(PeArray, DotProductMatchesReference)
{
    Rng rng(2);
    std::vector<std::int32_t> a(64), b(64);
    std::int64_t expect = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<std::int32_t>(rng.below(255)) - 127;
        b[i] = static_cast<std::int32_t>(rng.below(255)) - 127;
        expect += static_cast<std::int64_t>(a[i]) * b[i];
    }
    EXPECT_EQ(PeArray::dotProduct(a, 8, b, 8), expect);
}

TEST(PeArray, DequantizeAppliesBothScales)
{
    EXPECT_FLOAT_EQ(PeArray::dequantize(1000, 0.5, 0.25), 125.0f);
}

TEST(PeArray, MmCyclesInt8FullTile)
{
    CambriconQConfig cfg; // 64x64 4-bit
    PeArray pe(cfg);
    // One full 64x64 tile at INT8: m=1, passes=4 -> 4 cycles + fill.
    EXPECT_EQ(pe.mmCycles(1, 64, 64, 8, 8), 4u + cfg.peFill);
}

TEST(PeArray, MmCyclesScalesWithM)
{
    CambriconQConfig cfg;
    PeArray pe(cfg);
    const Tick t1 = pe.mmCycles(100, 64, 64, 8, 8);
    const Tick t2 = pe.mmCycles(200, 64, 64, 8, 8);
    EXPECT_EQ(t2 - cfg.peFill, 2 * (t1 - cfg.peFill));
}

TEST(PeArray, Int4IsFourTimesFasterThanInt8)
{
    CambriconQConfig cfg;
    PeArray pe(cfg);
    const Tick t8 = pe.mmCycles(512, 512, 512, 8, 8) - cfg.peFill;
    const Tick t4 = pe.mmCycles(512, 512, 512, 4, 4) - cfg.peFill;
    EXPECT_EQ(t8, 4 * t4);
}

TEST(PeArray, PeakMacsPerCycle)
{
    CambriconQConfig cfg;
    // 64*64/4 = 1024 INT8 MACs/cycle -> ~2 Tops @ 1 GHz.
    EXPECT_DOUBLE_EQ(cfg.peakMacsPerCycleInt8(), 1024.0);
}

TEST(PeArray, UtilizationHighForLargeSquare)
{
    CambriconQConfig cfg;
    PeArray pe(cfg);
    EXPECT_GT(pe.utilization(4096, 512, 512, 8, 8), 0.9);
}

TEST(PeArray, SystolicSlowerDueFillDrain)
{
    CambriconQConfig tree;
    CambriconQConfig sys = tree;
    sys.systolicDataflow = true;
    sys.peRows = 32;
    sys.peCols = 32;
    sys.peBits = 8;
    PeArray a(tree), b(sys);
    // Same INT8 peak (1024 macs/cycle vs 1024); systolic pays the
    // fill/drain per tile, so small-m GEMMs are slower there.
    EXPECT_GT(b.mmCycles(8, 512, 512, 8, 8),
              a.mmCycles(8, 512, 512, 8, 8));
}

TEST(PeArray, MeshSplitsWork)
{
    CambriconQConfig cfg = CambriconQConfig::throughputV(); // 8x8 mesh
    PeArray pe(cfg);
    CambriconQConfig base;
    PeArray single(base);
    const Tick t_mesh = pe.mmCycles(4096, 4096, 512, 8, 8);
    const Tick t_one = single.mmCycles(4096, 4096, 512, 8, 8);
    EXPECT_LT(64 * t_mesh, 2 * t_one); // ~64x faster, allow slack
}

// ---------------------------------------------------------------- SQU

TEST(Squ, OneWayKeepsUpWithDram)
{
    CambriconQConfig cfg;
    Squ squ(cfg);
    // Statistic rate 32 B/cycle > DRAM's ~17 B/cycle, so one-way
    // streaming cannot be the bottleneck.
    EXPECT_GE(squ.bytesPerCycle(1), cfg.dram.peakBytesPerTick());
}

TEST(Squ, FourWayHalvesThroughput)
{
    CambriconQConfig cfg;
    Squ squ(cfg);
    EXPECT_DOUBLE_EQ(squ.bytesPerCycle(4),
                     cfg.squQuantBytesPerCycle / 4.0);
}

TEST(Squ, StreamLatencyMonotonicInBytes)
{
    CambriconQConfig cfg;
    Squ squ(cfg);
    EXPECT_LT(squ.streamCycles(4096, 1), squ.streamCycles(65536, 1));
}

TEST(Squ, StreamLatencyMonotonicInWays)
{
    CambriconQConfig cfg;
    Squ squ(cfg);
    EXPECT_LE(squ.streamCycles(65536, 1), squ.streamCycles(65536, 4));
}

TEST(Squ, ZeroBytesZeroCycles)
{
    CambriconQConfig cfg;
    Squ squ(cfg);
    EXPECT_EQ(squ.streamCycles(0, 1), 0u);
}

// ---------------------------------------------------------------- QBC

TEST(Qbc, WholeLineWriteKeepsTag)
{
    Qbc qbc(1024, 32);
    quant::IntFormat fmt{8, 0.5};
    std::vector<std::int16_t> levels(32, 3);
    qbc.writeLine(0, levels, fmt);
    EXPECT_EQ(qbc.readLine(0).tag, fmt);
    EXPECT_DOUBLE_EQ(qbc.readValue(0, 5), 1.5);
    EXPECT_EQ(qbc.requantCount(), 0u);
}

TEST(Qbc, SameTagWordWriteNoRequant)
{
    Qbc qbc(1024, 32);
    quant::IntFormat fmt{8, 0.5};
    qbc.writeLine(0, std::vector<std::int16_t>(32, 4), fmt);
    qbc.writeWord(0, 3, 10, fmt);
    EXPECT_EQ(qbc.requantCount(), 0u);
    EXPECT_DOUBLE_EQ(qbc.readValue(0, 3), 5.0);
}

TEST(Qbc, MixedTagWriteTriggersRequantToMaxTag)
{
    Qbc qbc(1024, 32);
    quant::IntFormat fine{8, 0.25};
    quant::IntFormat wide{8, 1.0};
    qbc.writeLine(0, std::vector<std::int16_t>(32, 8), fine); // 2.0 each
    // Incoming word quantized with the wide scale.
    qbc.writeWord(0, 0, 50, wide); // value 50.0
    EXPECT_EQ(qbc.requantCount(), 1u);
    // The whole line now shares the wide (max) tag.
    EXPECT_EQ(qbc.readLine(0).tag.scale, 1.0);
    // Resident values were requantized and preserved.
    EXPECT_DOUBLE_EQ(qbc.readValue(0, 1), 2.0);
    EXPECT_DOUBLE_EQ(qbc.readValue(0, 0), 50.0);
}

TEST(Qbc, RequantPreservesValuesWithinNewResolution)
{
    Qbc qbc(1024, 32);
    quant::IntFormat fine{8, 0.01};
    quant::IntFormat wide{8, 0.04};
    std::vector<std::int16_t> levels(32);
    for (int i = 0; i < 32; ++i)
        levels[i] = static_cast<std::int16_t>(i * 4 - 64);
    qbc.writeLine(0, levels, fine);
    qbc.writeWord(0, 31, 100, wide);
    // Every resident value must be within half a wide LSB.
    for (int i = 0; i < 31; ++i) {
        const double orig = (i * 4 - 64) * 0.01;
        EXPECT_NEAR(qbc.readValue(0, i), orig, 0.02 + 1e-9);
    }
}

TEST(Qbc, CapacitySetsLineCount)
{
    Qbc qbc(256 * 1024, 32);
    EXPECT_EQ(qbc.numLines(), 8192u);
}

// ---------------------------------------------------------------- NDP

TEST(NdpEngine, MatchesSoftwareOptimizerSgd)
{
    nn::OptimizerConfig cfg;
    cfg.kind = nn::OptimizerKind::SGD;
    cfg.lr = 0.1;
    NdpEngine ndp;
    ndp.configure(nn::NdpoConstants::fromConfig(cfg));

    std::vector<float> w{1.0f, -2.0f}, m(2, 0.0f), v(2, 0.0f);
    ndp.weightGradientStore(w, m, v, {0.5f, -0.5f});
    EXPECT_FLOAT_EQ(w[0], 1.0f - 0.1f * 0.5f);
    EXPECT_FLOAT_EQ(w[1], -2.0f + 0.1f * 0.5f);
}

TEST(NdpEngine, MatchesSoftwareOptimizerAllKinds)
{
    Rng rng(77);
    for (auto kind :
         {nn::OptimizerKind::SGD, nn::OptimizerKind::AdaGrad,
          nn::OptimizerKind::RMSProp, nn::OptimizerKind::Adam}) {
        nn::OptimizerConfig ocfg;
        ocfg.kind = kind;
        ocfg.lr = 0.01;

        // Software reference path.
        nn::Param p("w", {64});
        p.value.fillGaussian(rng, 0.0f, 1.0f);
        std::vector<float> w(p.value.vec());
        std::vector<float> m(64, 0.0f), v(64, 0.0f);

        nn::Optimizer opt(ocfg);
        opt.attach({&p});

        NdpEngine ndp;
        for (int step = 1; step <= 5; ++step) {
            Rng grad_rng(100 + step);
            for (std::size_t i = 0; i < 64; ++i)
                p.grad[i] =
                    static_cast<float>(grad_rng.gaussian(0.0, 0.1));
            opt.step();
            // The NDP engine is reconfigured per step (exact Adam
            // bias correction arrives via CROSET).
            ndp.configure(nn::NdpoConstants::forStep(
                ocfg, static_cast<std::size_t>(step)));
            std::vector<float> g(p.grad.vec());
            ndp.weightGradientStore(w, m, v, g);
        }
        for (std::size_t i = 0; i < 64; ++i) {
            EXPECT_FLOAT_EQ(w[i], p.value[i])
                << "kind=" << nn::optimizerKindName(kind) << " i=" << i;
        }
    }
}

TEST(NdpEngine, CountsElements)
{
    NdpEngine ndp;
    ndp.configure(nn::NdpoConstants::fromConfig({}));
    std::vector<float> w(10, 0.0f), m(10, 0.0f), v(10, 0.0f),
        g(10, 1.0f);
    ndp.weightGradientStore(w, m, v, g);
    ndp.weightGradientStore(w, m, v, g);
    EXPECT_EQ(ndp.elementsProcessed(), 20u);
}

// ---------------------------------------------------------------- ISA

TEST(Isa, OpcodeNamesUnique)
{
    EXPECT_STREQ(opcodeName(Opcode::WGSTORE), "WGSTORE");
    EXPECT_STREQ(opcodeName(Opcode::QMOVE), "QMOVE");
    EXPECT_STREQ(opcodeName(Opcode::CROSET), "CROSET");
}

TEST(Isa, InstrToStringMentionsFields)
{
    Instr ins;
    ins.op = Opcode::MM;
    ins.phase = Phase::WG;
    ins.m = 3;
    ins.n = 5;
    ins.k = 7;
    const std::string s = ins.toString();
    EXPECT_NE(s.find("MM"), std::string::npos);
    EXPECT_NE(s.find("WG"), std::string::npos);
    EXPECT_NE(s.find("m=3"), std::string::npos);
    // A hand-built instruction belongs to no IR task.
    EXPECT_EQ(ins.task, kNoTask);
    EXPECT_EQ(s.find("task="), std::string::npos);
    ins.task = 42;
    EXPECT_NE(ins.toString().find("task=42"), std::string::npos);
}

TEST(Isa, ValidateRejectsForwardDeps)
{
    Program prog(2);
    prog[0].deps = {1};
    std::string err;
    EXPECT_FALSE(validateProgram(prog, &err));
    EXPECT_FALSE(err.empty());
}

TEST(Isa, ValidateAcceptsBackwardDeps)
{
    Program prog(3);
    prog[2].deps = {0, 1};
    EXPECT_TRUE(validateProgram(prog));
}

// ---------------------------------------------------------------- Executor

Instr
load(Addr addr, Bytes bytes)
{
    Instr i;
    i.op = Opcode::VLOAD;
    i.addr = addr;
    i.bytes = bytes;
    i.buf = BufId::NBin;
    return i;
}

TEST(Accelerator, EmptyProgramZeroTime)
{
    Accelerator acc(CambriconQConfig::edge());
    const PerfReport r = acc.run({});
    EXPECT_EQ(r.totalTicks, 0u);
}

TEST(Accelerator, SingleLoadTakesBandwidthTime)
{
    Accelerator acc(CambriconQConfig::edge());
    Program prog{load(0, 1 << 20)};
    const PerfReport r = acc.run(prog);
    // 1 MiB at 17.06 GB/s is ~61 us; allow generous bounds.
    EXPECT_GT(r.totalTicks, 55000u);
    EXPECT_LT(r.totalTicks, 80000u);
}

TEST(Accelerator, DependentComputeSerializes)
{
    Accelerator acc(CambriconQConfig::edge());
    Program prog;
    prog.push_back(load(0, 4096));
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 64;
    mm.n = 64;
    mm.k = 64;
    mm.deps = {0};
    prog.push_back(mm);
    const PerfReport r = acc.run(prog);
    // The MM can only start after the load.
    PeArray pe(acc.config());
    EXPECT_GE(r.totalTicks, pe.mmCycles(64, 64, 64, 8, 8));
}

TEST(Accelerator, IndependentUnitsOverlap)
{
    Accelerator acc(CambriconQConfig::edge());
    // A load and an equally-long second load on the same unit
    // serialize; a compute overlaps with a load.
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 4096;
    mm.n = 64;
    mm.k = 64;

    Program serial{load(0, 1 << 20), load(1 << 20, 1 << 20)};
    Program overlap{load(0, 1 << 20), mm};

    const Tick t_serial = Accelerator(acc.config()).run(serial).totalTicks;
    const Tick t_overlap =
        Accelerator(acc.config()).run(overlap).totalTicks;
    EXPECT_LT(t_overlap, t_serial);
}

TEST(Accelerator, WgstoreUsesNdpUnit)
{
    Accelerator acc(CambriconQConfig::edge());
    Instr wgs;
    wgs.op = Opcode::WGSTORE;
    wgs.elems = 100000;
    wgs.bytes = 400000;
    Program prog{wgs};
    const PerfReport r = acc.run(prog);
    EXPECT_GT(r.unitBusy[static_cast<std::size_t>(Unit::Ndp)], 0.0);
    EXPECT_EQ(r.activity.get("ndpo.elements"), 100000.0);
}

TEST(Accelerator, PhaseAttributionRecorded)
{
    Accelerator acc(CambriconQConfig::edge());
    Instr l = load(0, 65536);
    l.phase = Phase::NG;
    Program prog{l};
    const PerfReport r = acc.run(prog);
    EXPECT_GT(r.phaseBusy[static_cast<std::size_t>(Phase::NG)], 0.0);
    EXPECT_EQ(r.phaseBusy[static_cast<std::size_t>(Phase::FW)], 0.0);
}

TEST(Accelerator, EnergyBreakdownPopulated)
{
    Accelerator acc(CambriconQConfig::edge());
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 512;
    mm.n = 512;
    mm.k = 512;
    Program prog{load(0, 1 << 18), mm};
    const PerfReport r = acc.run(prog);
    EXPECT_GT(r.energy.accPj, 0.0);
    EXPECT_GT(r.energy.ddrDynamicPj, 0.0);
    EXPECT_GT(r.energy.ddrStandbyPj, 0.0);
}

TEST(Accelerator, TwelveBitGemmIsPriced)
{
    // A 12-bit MAC accumulates at 24 bits, which the energy model
    // prices between its int16 and int32 adders.
    Accelerator acc(CambriconQConfig::edge());
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = mm.n = mm.k = 64;
    mm.bitsA = mm.bitsB = 12;
    Program prog{load(0, 1 << 16), mm};
    const PerfReport r = acc.run(prog);
    EXPECT_EQ(r.activity.get("pe.macs.int12"), 64.0 * 64.0 * 64.0);
    EXPECT_GT(r.energy.accPj, 0.0);
}

TEST(Accelerator, DeterministicAcrossRuns)
{
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 128;
    mm.n = 128;
    mm.k = 128;
    mm.deps = {0};
    Program prog{load(0, 1 << 16), mm};
    const Tick t1 =
        Accelerator(CambriconQConfig::edge()).run(prog).totalTicks;
    const Tick t2 =
        Accelerator(CambriconQConfig::edge()).run(prog).totalTicks;
    EXPECT_EQ(t1, t2);
}


TEST(Accelerator, StridedLoadSlowerThanContiguous)
{
    // Same bytes, but stripes jump across DRAM rows: the command-level
    // model must charge the row misses.
    Instr contiguous = load(0, 256 * 1024);

    Instr strided;
    strided.op = Opcode::SLOAD;
    strided.bytes = 256 * 1024;
    strided.elems = 128;              // stripes
    strided.bytes2 = 8 * 2048;        // one stride = a full bank row set
    strided.buf = BufId::SB;

    const Tick t_c =
        Accelerator(CambriconQConfig::edge()).run({contiguous}).totalTicks;
    const Tick t_s =
        Accelerator(CambriconQConfig::edge()).run({strided}).totalTicks;
    EXPECT_GT(t_s, t_c);
}

TEST(Accelerator, TraceCoversEveryInstruction)
{
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 128;
    mm.n = 128;
    mm.k = 128;
    mm.deps = {0};
    Program prog{load(0, 1 << 16), mm};
    const PerfReport r =
        Accelerator(CambriconQConfig::edge()).run(prog, true);
    ASSERT_EQ(r.trace.size(), prog.size());
    for (const auto &e : r.trace) {
        EXPECT_LE(e.start, e.end);
        EXPECT_LE(e.end, r.totalTicks);
    }
}

TEST(Accelerator, TraceUnitsNeverOverlap)
{
    // Property: on any single unit, busy intervals are disjoint --
    // the executor must serialize each unit's instructions.
    const auto ir = [] {
        // Use a real compiled program for coverage.
        return CambriconQConfig::edge();
    }();
    (void)ir;
    Program prog;
    // Alternate loads/stores/computes with dependencies.
    for (int i = 0; i < 20; ++i) {
        Instr l = load(static_cast<Addr>(i) * 4096, 4096);
        prog.push_back(l);
        Instr mm;
        mm.op = Opcode::MM;
        mm.m = 64;
        mm.n = 64;
        mm.k = 64;
        mm.deps = {static_cast<std::uint32_t>(prog.size() - 1)};
        prog.push_back(mm);
        Instr st;
        st.op = Opcode::QSTORE;
        st.addr = 0x100000 + static_cast<Addr>(i) * 4096;
        st.bytes = 4096;
        st.elems = 4096;
        st.deps = {static_cast<std::uint32_t>(prog.size() - 1)};
        prog.push_back(st);
    }
    const PerfReport r =
        Accelerator(CambriconQConfig::edge()).run(prog, true);
    ASSERT_EQ(r.trace.size(), prog.size());

    std::array<std::vector<std::pair<Tick, Tick>>, kNumUnits> spans;
    for (const auto &e : r.trace)
        spans[static_cast<std::size_t>(e.unit)].push_back(
            {e.start, e.end});
    for (auto &v : spans) {
        std::sort(v.begin(), v.end());
        for (std::size_t i = 1; i < v.size(); ++i)
            EXPECT_LE(v[i - 1].second, v[i].first);
    }
}

TEST(Accelerator, TraceDependenciesRespected)
{
    Instr l = load(0, 1 << 16);
    Instr mm;
    mm.op = Opcode::MM;
    mm.m = 32;
    mm.n = 32;
    mm.k = 32;
    mm.deps = {0};
    Program prog{l, mm};
    const PerfReport r =
        Accelerator(CambriconQConfig::edge()).run(prog, true);
    Tick load_end = 0, mm_start = 0;
    for (const auto &e : r.trace) {
        if (e.instr == 0)
            load_end = e.end;
        if (e.instr == 1)
            mm_start = e.start;
    }
    EXPECT_GE(mm_start, load_end);
}

TEST(Accelerator, QbcRequantsCountedOnWgGemms)
{
    Instr mm;
    mm.op = Opcode::MM;
    mm.phase = Phase::WG;
    mm.m = 64;
    mm.n = 64;
    mm.k = 64;
    const PerfReport r =
        Accelerator(CambriconQConfig::edge()).run({mm});
    EXPECT_GT(r.activity.get("qbc.requants"), 0.0);

    Instr fw = mm;
    fw.phase = Phase::FW;
    const PerfReport r2 =
        Accelerator(CambriconQConfig::edge()).run({fw});
    EXPECT_EQ(r2.activity.get("qbc.requants"), 0.0);
}

TEST(AcceleratorDeath, ForwardDependencePanics)
{
    // run() is the one consumer that indexes by dependence, so it
    // validates every program before executing it.
    Program prog{load(0, 4096), load(4096, 4096)};
    prog[0].deps = {1};
    Accelerator acc(CambriconQConfig::edge());
    EXPECT_DEATH(acc.run(prog), "instr 0 depends on 1");
}

// ------------------------------------------ issue rule and the oracle

/**
 * A random program over every opcode (WGSTORE only with NDP) with
 * random backward dependences. Each instruction picks its unit first,
 * so all five units stay busy. Half the programs take tiny operands
 * and few dependences (one in four instructions has one): every op
 * then lasts a few ticks to a few tens, and many completions on
 * different units fall on the same tick.
 */
Program
randomProgram(Rng &rng, const CambriconQConfig &cfg, std::size_t n)
{
    using enum Opcode;
    const std::vector<std::vector<Opcode>> byUnit = {
        {VLOAD, SLOAD, QLOAD},
        {VSTORE, SSTORE, QSTORE, QMOVE},
        {MM, CONV, VMUL, VADD, VFMUL, HMUL},
        {SFU},
        cfg.ndpEnabled ? std::vector<Opcode>{CROSET, WGSTORE}
                       : std::vector<Opcode>{CROSET}};
    constexpr std::uint64_t kWindow = 1ull << 22;
    const bool tiny = rng.below(2) == 0;
    const std::uint64_t size = tiny ? 4 : 96;
    const std::uint64_t elems = tiny ? 256 : 4096;
    const std::uint64_t bytes = tiny ? 64 : 4096;
    Program prog;
    for (std::size_t i = 0; i < n; ++i) {
        Instr ins;
        const auto &ops = byUnit[rng.below(kNumUnits)];
        ins.op = ops[rng.below(ops.size())];
        ins.phase = static_cast<Phase>(rng.below(kNumPhases));
        ins.buf = static_cast<BufId>(rng.below(4));
        ins.addr = rng.below(kWindow);
        ins.bytes = 1 + rng.below(bytes);
        ins.addr2 = rng.below(kWindow);
        ins.bytes2 = 1 + rng.below(bytes);
        ins.elems = 1 + rng.below(elems);
        ins.ways = static_cast<std::uint8_t>(1 + rng.below(4));
        ins.m = static_cast<std::uint32_t>(1 + rng.below(size));
        ins.n = static_cast<std::uint32_t>(1 + rng.below(size));
        ins.k = static_cast<std::uint32_t>(1 + rng.below(size));
        // 16, 8 or (on 4-bit PEs) 12 or 4 bits: the operand widths
        // that are whole multiples of the PE width.
        static constexpr std::uint8_t kWidths[] = {16, 8, 12, 4};
        const std::uint64_t widths = cfg.peBits == 4 ? 4 : 2;
        ins.bitsA = kWidths[rng.below(widths)];
        ins.bitsB = kWidths[rng.below(widths)];
        if (ins.op == SLOAD || ins.op == SSTORE) {
            ins.elems = 1 + rng.below(16);
            ins.bytes2 = rng.below(8192);
        }
        const std::uint64_t deps =
            i == 0 ? 0 : rng.below(4) / (tiny ? 3 : 1);
        for (std::uint64_t d = 0; d < deps; ++d) {
            ins.deps.push_back(static_cast<std::uint32_t>(
                i - 1 - rng.below(std::min<std::size_t>(i, 12))));
        }
        prog.push_back(std::move(ins));
    }
    return prog;
}

/** The three executor configurations the tests below cover. */
std::vector<CambriconQConfig>
executorConfigs()
{
    return {CambriconQConfig::edge(), CambriconQConfig::edgeNoNdp(),
            baseline::tpuConfig()};
}

/** Codegen'd tiny CNN and MLP programs for @p cfg. */
std::vector<Program>
tinyPrograms(const CambriconQConfig &cfg)
{
    compiler::CodegenOptions opts;
    if (cfg.name == baseline::tpuConfig().name)
        opts.target = compiler::CodegenOptions::Target::Tpu;
    return {compiler::generateProgram(compiler::buildTinyCnn(), cfg, opts),
            compiler::generateProgram(compiler::buildTinyMlp(), cfg, opts)};
}

/** Every field of @p got equals @p want's, bit for bit. */
::testing::AssertionResult
sameReport(const PerfReport &got, const PerfReport &want)
{
    const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
    if (got.totalTicks != want.totalTicks) {
        return ::testing::AssertionFailure()
               << "totalTicks " << got.totalTicks << " vs "
               << want.totalTicks;
    }
    for (std::size_t p = 0; p < kNumPhases; ++p) {
        if (bits(got.phaseBusy[p]) != bits(want.phaseBusy[p]))
            return ::testing::AssertionFailure() << "phaseBusy " << p;
    }
    for (std::size_t u = 0; u < kNumUnits; ++u) {
        if (bits(got.unitBusy[u]) != bits(want.unitBusy[u]))
            return ::testing::AssertionFailure() << "unitBusy " << u;
    }
    const auto &a = got.activity.all();
    const auto &b = want.activity.all();
    if (a.size() != b.size()) {
        return ::testing::AssertionFailure()
               << a.size() << " vs " << b.size() << " counters";
    }
    for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
        if (ia->first != ib->first || bits(ia->second) != bits(ib->second)) {
            return ::testing::AssertionFailure()
                   << ia->first << " " << ia->second << " vs "
                   << ib->first << " " << ib->second;
        }
    }
    if (bits(got.dramDynamicPj) != bits(want.dramDynamicPj) ||
        bits(got.dramStandbyPj) != bits(want.dramStandbyPj))
        return ::testing::AssertionFailure() << "DRAM energy";
    if (got.trace.size() != want.trace.size()) {
        return ::testing::AssertionFailure()
               << got.trace.size() << " vs " << want.trace.size()
               << " trace entries";
    }
    for (std::size_t i = 0; i < got.trace.size(); ++i) {
        const TraceEntry &x = got.trace[i];
        const TraceEntry &y = want.trace[i];
        if (x.instr != y.instr || x.unit != y.unit || x.phase != y.phase ||
            x.start != y.start || x.end != y.end)
            return ::testing::AssertionFailure() << "trace entry " << i;
    }
    return ::testing::AssertionSuccess();
}

TEST(AcceleratorDifferential, SlotExecutorMatchesEventQueueOracleBitwise)
{
    Rng rng(16);
    std::size_t programs = 0;
    std::size_t sameTickEnds = 0;
    for (const CambriconQConfig &cfg : executorConfigs()) {
        std::vector<Program> progs = tinyPrograms(cfg);
        for (int r = 0; r < 100; ++r)
            progs.push_back(randomProgram(rng, cfg, 1 + rng.below(400)));
        for (const Program &prog : progs) {
            const PerfReport got = Accelerator(cfg).run(prog, true);
            const PerfReport want =
                oracle::runEventQueueExecutor(cfg, prog, true);
            ASSERT_TRUE(sameReport(got, want))
                << cfg.name << " program " << programs;
            ++programs;
            // Completions on different units at one tick: the cases
            // the (tick, issue order) tie-break decides.
            std::vector<Tick> ends;
            for (const TraceEntry &e : want.trace)
                ends.push_back(e.end);
            std::sort(ends.begin(), ends.end());
            for (std::size_t i = 1; i < ends.size(); ++i)
                sameTickEnds += ends[i] == ends[i - 1];
        }
    }
    EXPECT_EQ(programs, 3u * 102u);
    EXPECT_GT(sameTickEnds, 500u) << sameTickEnds;
}

/**
 * The issue rule: an instruction starts when the last of its blockers
 * completes -- the previous instruction on its unit and every
 * dependence -- or at tick 0 when it has none.
 */
void
expectIssueRule(const Program &prog, const PerfReport &r)
{
    ASSERT_EQ(r.trace.size(), prog.size());
    std::vector<const TraceEntry *> entry(prog.size());
    for (const TraceEntry &e : r.trace)
        entry[e.instr] = &e;
    // Each unit runs its instructions in program order.
    std::array<Tick, kNumUnits> unitFree{};
    for (std::uint32_t i = 0; i < prog.size(); ++i) {
        Tick &free = unitFree[static_cast<std::size_t>(entry[i]->unit)];
        Tick ready = free;
        for (std::uint32_t d : prog[i].deps)
            ready = std::max(ready, entry[d]->end);
        EXPECT_EQ(entry[i]->start, ready) << "instr " << i;
        free = entry[i]->end;
    }
}

TEST(Accelerator, TraceStartsWhenLastBlockerCompletes)
{
    Rng rng(5);
    for (const CambriconQConfig &cfg : executorConfigs()) {
        SCOPED_TRACE(cfg.name);
        for (const Program &net : tinyPrograms(cfg))
            expectIssueRule(net, Accelerator(cfg).run(net, true));
        for (int r = 0; r < 10; ++r) {
            const Program prog = randomProgram(rng, cfg, 200);
            expectIssueRule(prog, Accelerator(cfg).run(prog, true));
        }
    }
}

} // namespace
} // namespace cq::arch
