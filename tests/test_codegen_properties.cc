/**
 * @file
 * Property tests of the code generator and the energy/ISA
 * infrastructure: for swept GEMM shapes and targets, emitted programs
 * must validate, move at least the operand footprints, keep every
 * tile within the double-buffered on-chip capacities, and simulate
 * deterministically. Plus ISA encode/decode round trips and energy
 * model unit tests.
 */

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "arch/accelerator.h"
#include "arch/isa.h"
#include "baseline/tpu_sim.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"
#include "energy/energy_model.h"

namespace cq {
namespace {

using compiler::CodegenOptions;
using compiler::GemmTask;
using compiler::Task;
using compiler::WorkloadIR;

WorkloadIR
singleGemmWorkload(std::uint64_t m, std::uint64_t n, std::uint64_t k)
{
    WorkloadIR ir;
    ir.name = "one-gemm";
    ir.batch = 1;
    GemmTask g;
    g.layer = "L";
    g.m = m;
    g.n = n;
    g.k = k;
    g.aTensor = "input";
    g.bTensor = "w:L";
    g.freshWeightElems = k * n;
    g.cTensor = "act:L";
    ir.tasks.push_back(Task::make(g));
    ir.finalize();
    return ir;
}

// ------------------------------------------------- codegen shape sweep

struct GemmShape
{
    std::uint64_t m, n, k;
};

class CodegenShapes
    : public ::testing::TestWithParam<std::tuple<GemmShape, int>>
{
};

TEST_P(CodegenShapes, ProgramValidatesAndCoversOperands)
{
    const auto [shape, target] = GetParam();
    const WorkloadIR ir =
        singleGemmWorkload(shape.m, shape.n, shape.k);
    const arch::CambriconQConfig cfg =
        target == 0 ? arch::CambriconQConfig::edge()
                    : baseline::tpuConfig();
    CodegenOptions opts;
    opts.target = target == 0 ? CodegenOptions::Target::CambriconQ
                              : CodegenOptions::Target::Tpu;
    const arch::Program prog =
        compiler::generateProgram(ir, cfg, opts);
    ASSERT_TRUE(validateProgram(prog));

    // Loads must cover at least one pass over each operand (A once,
    // quantized B once); stores at least the output.
    const auto traffic = compiler::summarizeTraffic(prog);
    EXPECT_GE(traffic.loadBytes, shape.m * shape.k + shape.k * shape.n);
    EXPECT_GE(traffic.storeBytes, shape.m * shape.n);

    // All MM tiles must fit the double-buffered capacities.
    for (const auto &ins : prog) {
        if (ins.op != arch::Opcode::MM &&
            ins.op != arch::Opcode::CONV)
            continue;
        EXPECT_LE(static_cast<Bytes>(ins.m) * ins.k * ins.bitsA / 8,
                  cfg.nbinBytes / 2)
            << ins.toString();
        EXPECT_LE(static_cast<Bytes>(ins.k) * ins.n * ins.bitsB / 8,
                  cfg.sbBytes / 2)
            << ins.toString();
        EXPECT_LE(static_cast<Bytes>(ins.m) * ins.n * 4,
                  cfg.nboutBytes)
            << ins.toString();
    }

    // The emitted MM tiles cover exactly the full GEMM volume.
    std::uint64_t macs = 0;
    for (const auto &ins : prog) {
        if (ins.op == arch::Opcode::MM ||
            ins.op == arch::Opcode::CONV)
            macs += static_cast<std::uint64_t>(ins.m) * ins.n * ins.k;
    }
    EXPECT_EQ(macs, shape.m * shape.n * shape.k);
}

TEST_P(CodegenShapes, SimulationDeterministicAndFinite)
{
    const auto [shape, target] = GetParam();
    const WorkloadIR ir =
        singleGemmWorkload(shape.m, shape.n, shape.k);
    const arch::CambriconQConfig cfg =
        target == 0 ? arch::CambriconQConfig::edge()
                    : baseline::tpuConfig();
    CodegenOptions opts;
    opts.target = target == 0 ? CodegenOptions::Target::CambriconQ
                              : CodegenOptions::Target::Tpu;
    const arch::Program prog =
        compiler::generateProgram(ir, cfg, opts);
    const Tick t1 = arch::Accelerator(cfg).run(prog).totalTicks;
    const Tick t2 = arch::Accelerator(cfg).run(prog).totalTicks;
    EXPECT_EQ(t1, t2);
    EXPECT_GT(t1, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTargets, CodegenShapes,
    ::testing::Combine(
        ::testing::Values(GemmShape{1, 1, 1}, GemmShape{7, 13, 17},
                          GemmShape{512, 64, 576},
                          GemmShape{64, 1000, 4096},
                          GemmShape{4096, 64, 64},
                          GemmShape{33, 4097, 129}),
        ::testing::Values(0, 1)),
    [](const auto &info) {
        const auto &s = std::get<0>(info.param);
        return std::string(std::get<1>(info.param) == 0 ? "cq" : "tpu") +
               "_m" + std::to_string(s.m) + "n" + std::to_string(s.n) +
               "k" + std::to_string(s.k);
    });

// --------------------------------------------------- ISA round trip

TEST(IsaEncoding, RoundTripsEveryField)
{
    arch::Instr ins;
    ins.op = arch::Opcode::WGSTORE;
    ins.phase = arch::Phase::WU;
    ins.addr = 0x123456789abcull;
    ins.bytes = 0x11223344ull;
    ins.addr2 = 0xdeadbeefull;
    ins.bytes2 = 77;
    ins.buf = arch::BufId::NBout;
    ins.m = 123;
    ins.n = 456;
    ins.k = 789;
    ins.bitsA = 12;
    ins.bitsB = 16;
    ins.elems = (1ull << 40) + 5;
    ins.ways = 4;

    const arch::Instr back =
        arch::decodeInstr(arch::encodeInstr(ins));
    EXPECT_EQ(back.op, ins.op);
    EXPECT_EQ(back.phase, ins.phase);
    EXPECT_EQ(back.buf, ins.buf);
    EXPECT_EQ(back.addr, ins.addr);
    EXPECT_EQ(back.addr2, ins.addr2);
    EXPECT_EQ(back.bytes, ins.bytes);
    EXPECT_EQ(back.bytes2, ins.bytes2);
    EXPECT_EQ(back.m, ins.m);
    EXPECT_EQ(back.n, ins.n);
    EXPECT_EQ(back.k, ins.k);
    EXPECT_EQ(back.bitsA, ins.bitsA);
    EXPECT_EQ(back.bitsB, ins.bitsB);
    EXPECT_EQ(back.elems, ins.elems);
    EXPECT_EQ(back.ways, ins.ways);
}

TEST(IsaEncoding, WholeProgramRoundTrips)
{
    const auto ir = compiler::buildTinyCnn();
    const auto cfg = arch::CambriconQConfig::edge();
    const auto prog =
        compiler::generateProgram(ir, cfg, CodegenOptions{});
    for (const auto &ins : prog) {
        const arch::Instr back =
            arch::decodeInstr(arch::encodeInstr(ins));
        EXPECT_EQ(back.op, ins.op);
        EXPECT_EQ(back.addr, ins.addr);
        EXPECT_EQ(back.bytes, ins.bytes);
        EXPECT_EQ(back.elems, ins.elems);
        EXPECT_EQ(back.m, ins.m);
    }
}

// ------------------------------------------- instruction origin

TEST(CodegenTask, EveryInstructionNamesTheTaskThatEmittedIt)
{
    std::vector<WorkloadIR> irs = compiler::allBenchmarks();
    irs.push_back(compiler::buildTinyCnn());
    irs.push_back(compiler::buildTinyMlp());
    for (const WorkloadIR &ir : irs) {
        for (const bool tpu : {false, true}) {
            SCOPED_TRACE(ir.name + (tpu ? " on TPU" : " on CQ"));
            const arch::CambriconQConfig cfg =
                tpu ? baseline::tpuConfig()
                    : arch::CambriconQConfig::edge();
            CodegenOptions opts;
            opts.target = tpu ? CodegenOptions::Target::Tpu
                              : CodegenOptions::Target::CambriconQ;
            const bool ndp = !tpu && cfg.ndpEnabled;
            const arch::Program prog =
                compiler::generateProgram(ir, cfg, opts);
            ASSERT_FALSE(prog.empty());
            std::uint32_t prev = 0;
            for (std::size_t i = 0; i < prog.size(); ++i) {
                const arch::Instr &ins = prog[i];
                if (ins.op == arch::Opcode::CROSET) {
                    ASSERT_EQ(ins.task, arch::kNoTask) << i;
                    continue;
                }
                // Every other instruction names a task, in task order.
                ASSERT_LT(ins.task, ir.tasks.size())
                    << i << ": " << ins.toString();
                ASSERT_GE(ins.task, prev) << i << ": " << ins.toString();
                prev = ins.task;
                const Task::Kind kind = ir.tasks[ins.task].kind;
                if (ins.op == arch::Opcode::MM ||
                    ins.op == arch::Opcode::CONV) {
                    ASSERT_EQ(kind, Task::Kind::Gemm)
                        << i << ": " << ins.toString();
                }
                // The non-NDP optimizer's loads, arithmetic and
                // stores come from Update tasks and only those; on
                // NDP targets Update tasks emit nothing.
                const bool optimizer =
                    !ndp && ins.phase == arch::Phase::WU;
                ASSERT_EQ(kind == Task::Kind::Update, optimizer)
                    << i << ": " << ins.toString();
            }
        }
    }
}

// --------------------------------------------------- energy model

TEST(EnergyModel, SramEnergyGrowsWithCapacity)
{
    EXPECT_LT(energy::sramAccessPjPerByte(4 * 1024),
              energy::sramAccessPjPerByte(512 * 1024));
}

TEST(EnergyModel, BreakdownUsesActivityCounters)
{
    StatGroup act;
    act.counter("pe.macs.int8") = 1e6;
    act.counter("sfu.ops") = 1e3;
    act.counter("buf.NBin.capacity") = 256 * 1024;
    act.counter("buf.NBin.readBytes") = 1e6;
    const auto e = energy::buildBreakdown(act, 123.0, 456.0);
    EXPECT_GT(e.accPj, 1e6 * energy::op::kInt8Mul);
    EXPECT_GT(e.bufPj, 0.0);
    EXPECT_EQ(e.ddrDynamicPj, 123.0);
    EXPECT_EQ(e.ddrStandbyPj, 456.0);
    EXPECT_NEAR(e.totalPj(),
                e.accPj + e.bufPj + 123.0 + 456.0 + e.chipStaticPj,
                1e-9);
}

TEST(EnergyModel, EmptyActivityOnlyDram)
{
    StatGroup act;
    const auto e = energy::buildBreakdown(act, 10.0, 20.0);
    EXPECT_EQ(e.accPj, 0.0);
    EXPECT_EQ(e.bufPj, 0.0);
    EXPECT_EQ(e.totalPj(), 30.0);
}

TEST(EnergyModel, Int4MacsCheaperThanInt8)
{
    StatGroup a4, a8;
    a4.counter("pe.macs.int4") = 1e6;
    a8.counter("pe.macs.int8") = 1e6;
    EXPECT_LT(energy::buildBreakdown(a4, 0, 0).accPj,
              energy::buildBreakdown(a8, 0, 0).accPj);
}

TEST(EnergyModel, TableVIITotalsMatchPaper)
{
    const auto hw = energy::HwCharacteristics::cambriconQ();
    EXPECT_NEAR(hw.coreAreaMm2(), 8.69, 0.02);
    EXPECT_NEAR(hw.corePowerMw(), 891.37, 0.1);
    EXPECT_NEAR(hw.ndpAreaMm2(), 0.49, 0.001);
    EXPECT_NEAR(hw.ndpPowerMw(), 138.94, 0.01);
}

TEST(EnergyModel, DramAccessScalesWithWidth)
{
    EXPECT_GT(energy::op::dramAccess(32), energy::op::dramAccess(16));
    EXPECT_GT(energy::op::dramAccess(16), energy::op::dramAccess(8));
}

} // namespace
} // namespace cq
