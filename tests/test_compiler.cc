/**
 * @file
 * Tests for the workload builder and code generator, plus
 * integration tests running generated programs through the
 * Cambricon-Q and TPU simulators.
 */

#include <gtest/gtest.h>

#include <set>

#include "arch/accelerator.h"
#include "baseline/gpu_model.h"
#include "baseline/tpu_sim.h"
#include "compiler/codegen.h"
#include "compiler/workloads.h"

namespace cq::compiler {
namespace {

using arch::Opcode;
using arch::Phase;

// ---------------------------------------------------------------- IR

TEST(Workloads, AlexNetWeightCount)
{
    const WorkloadIR ir = buildAlexNet();
    // Classic AlexNet has ~61M parameters (we omit biases).
    EXPECT_GT(ir.totalWeights, 55'000'000u);
    EXPECT_LT(ir.totalWeights, 65'000'000u);
}

TEST(Workloads, ResNet18WeightCount)
{
    const WorkloadIR ir = buildResNet18();
    EXPECT_GT(ir.totalWeights, 10'000'000u);
    EXPECT_LT(ir.totalWeights, 13'000'000u);
}

TEST(Workloads, GoogLeNetWeightCount)
{
    const WorkloadIR ir = buildGoogLeNet();
    EXPECT_GT(ir.totalWeights, 5'000'000u);
    EXPECT_LT(ir.totalWeights, 8'000'000u);
}

TEST(Workloads, SqueezeNetWeightCount)
{
    const WorkloadIR ir = buildSqueezeNet();
    EXPECT_GT(ir.totalWeights, 1'000'000u);
    EXPECT_LT(ir.totalWeights, 2'000'000u);
}

TEST(Workloads, TransformerWeightCount)
{
    const WorkloadIR ir = buildTransformerBase();
    EXPECT_GT(ir.totalWeights, 55'000'000u);
    EXPECT_LT(ir.totalWeights, 75'000'000u);
}

TEST(Workloads, LstmWeightCount)
{
    const WorkloadIR ir = buildPtbLstm();
    EXPECT_GT(ir.totalWeights, 18'000'000u);
    EXPECT_LT(ir.totalWeights, 22'000'000u);
}

TEST(Workloads, BackwardRoughlyDoublesForwardMacs)
{
    for (const auto &ir : {buildAlexNet(), buildResNet18()}) {
        const auto fw = ir.macsInPhase(Phase::FW);
        const auto bw =
            ir.macsInPhase(Phase::NG) + ir.macsInPhase(Phase::WG);
        EXPECT_GT(bw, fw);           // backward has NG + WG
        EXPECT_LT(bw, 5 * fw / 2);   // but no more than ~2.5x
    }
}

TEST(Workloads, PhasesPresent)
{
    const WorkloadIR ir = buildTinyCnn();
    for (auto phase : {Phase::FW, Phase::NG, Phase::WG})
        EXPECT_GT(ir.macsInPhase(phase), 0u) << arch::phaseName(phase);
    EXPECT_GT(ir.totalWeights, 0u);
}

TEST(Workloads, AlexNetIsWeightHeavy)
{
    // AlexNet's weights-per-MAC ratio is much higher than
    // GoogLeNet's -- the property behind the NDP ablation shape.
    const WorkloadIR alex = buildAlexNet();
    const WorkloadIR goog = buildGoogLeNet();
    const double alex_ratio =
        static_cast<double>(alex.totalWeights) / alex.totalMacs;
    const double goog_ratio =
        static_cast<double>(goog.totalWeights) / goog.totalMacs;
    EXPECT_GT(alex_ratio, 5.0 * goog_ratio);
}


TEST(WorkloadStructure, InferenceModeForwardOnly)
{
    NetworkBuilder b("inf", 8);
    b.inputImage(3, 16, 16);
    b.conv("c1", 8, 3, 1, 1);
    b.fc("fc", 10, false);
    const WorkloadIR ir = b.buildInference();
    EXPECT_EQ(ir.totalWeights, 0u); // no update tasks
    EXPECT_EQ(ir.macsInPhase(Phase::NG), 0u);
    EXPECT_EQ(ir.macsInPhase(Phase::WG), 0u);
    EXPECT_GT(ir.macsInPhase(Phase::FW), 0u);

    // And it simulates: INT4 inference is the Sec. VII-C use case.
    const auto cfg = arch::CambriconQConfig::edge();
    CodegenOptions o4;
    o4.bits = 4;
    const auto t4 = arch::Accelerator(cfg)
                        .run(generateProgram(ir, cfg, o4))
                        .totalTicks;
    CodegenOptions o8;
    const auto t8 = arch::Accelerator(cfg)
                        .run(generateProgram(ir, cfg, o8))
                        .totalTicks;
    EXPECT_LT(t4, t8);
}

// ---------------------------------------------------------------- codegen

TEST(Codegen, TinyProgramValidates)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    const arch::Program prog =
        generateProgram(ir, cfg, CodegenOptions{});
    EXPECT_GT(prog.size(), 10u);
    EXPECT_TRUE(validateProgram(prog));
}

TEST(Codegen, NdpProgramUsesWgstoreNotUpdateLoads)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    const arch::Program prog =
        generateProgram(ir, cfg, CodegenOptions{});
    std::size_t wgstores = 0, crosets = 0;
    for (const auto &ins : prog) {
        wgstores += ins.op == Opcode::WGSTORE;
        crosets += ins.op == Opcode::CROSET;
    }
    EXPECT_GT(wgstores, 0u);
    EXPECT_EQ(crosets, 1u);
}

TEST(Codegen, NoNdpProgramHasExplicitUpdate)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::CambriconQConfig cfg =
        arch::CambriconQConfig::edgeNoNdp();
    const arch::Program prog =
        generateProgram(ir, cfg, CodegenOptions{});
    std::size_t wgstores = 0, wu_loads = 0;
    for (const auto &ins : prog) {
        wgstores += ins.op == Opcode::WGSTORE;
        wu_loads += ins.op == Opcode::VLOAD && ins.phase == Phase::WU;
    }
    EXPECT_EQ(wgstores, 0u);
    EXPECT_GT(wu_loads, 0u);
}

TEST(Codegen, TpuProgramHasStatQuantPasses)
{
    const WorkloadIR ir = buildTinyCnn();
    CodegenOptions opts;
    opts.target = CodegenOptions::Target::Tpu;
    const arch::Program prog =
        generateProgram(ir, baseline::tpuConfig(), opts);
    double stat = 0, quant = 0, qstores = 0;
    for (const auto &ins : prog) {
        stat += ins.phase == Phase::Stat;
        quant += ins.phase == Phase::Quant;
        qstores += ins.op == Opcode::QSTORE || ins.op == Opcode::QMOVE;
    }
    EXPECT_GT(stat, 0);
    EXPECT_GT(quant, 0);
    EXPECT_EQ(qstores, 0); // no SQU on the TPU
}

TEST(Codegen, CambriconQQuantizesOnTheFly)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::Program prog = generateProgram(
        ir, arch::CambriconQConfig::edge(), CodegenOptions{});
    double qstores = 0, stat_instrs = 0;
    for (const auto &ins : prog) {
        qstores += ins.op == Opcode::QSTORE;
        stat_instrs += ins.phase == Phase::Stat;
    }
    EXPECT_GT(qstores, 0);
    EXPECT_EQ(stat_instrs, 0); // fused, no separate statistic pass
}

TEST(Codegen, TpuMovesMoreBytesThanCambriconQ)
{
    const WorkloadIR ir = buildTinyCnn();
    const auto cq_prog = generateProgram(
        ir, arch::CambriconQConfig::edge(), CodegenOptions{});
    CodegenOptions topts;
    topts.target = CodegenOptions::Target::Tpu;
    const auto tpu_prog =
        generateProgram(ir, baseline::tpuConfig(), topts);

    const auto cq_traffic = summarizeTraffic(cq_prog);
    const auto tpu_traffic = summarizeTraffic(tpu_prog);
    EXPECT_GT(tpu_traffic.totalBytes(), cq_traffic.totalBytes());
}

TEST(Codegen, NdpEliminatesHighPrecisionUpdateTraffic)
{
    const WorkloadIR ir = buildTinyCnn();
    const auto with_ndp = summarizeTraffic(generateProgram(
        ir, arch::CambriconQConfig::edge(), CodegenOptions{}));
    const auto without = summarizeTraffic(generateProgram(
        ir, arch::CambriconQConfig::edgeNoNdp(), CodegenOptions{}));
    EXPECT_LT(with_ndp.totalBytes(), without.totalBytes());
}

// ---------------------------------------------------------- integration

TEST(Integration, TinyCnnRunsOnCambriconQ)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    arch::Accelerator acc(cfg);
    const auto report = acc.run(
        generateProgram(ir, cfg, CodegenOptions{}));
    EXPECT_GT(report.totalTicks, 0u);
    EXPECT_GT(report.energy.totalPj(), 0.0);
    // All four training phases show up.
    for (auto phase : {Phase::FW, Phase::NG, Phase::WG, Phase::WU}) {
        EXPECT_GT(
            report.phaseBusy[static_cast<std::size_t>(phase)], 0.0)
            << arch::phaseName(phase);
    }
}

TEST(Integration, TinyCnnRunsOnTpu)
{
    const auto report = baseline::simulateTpu(buildTinyCnn());
    EXPECT_GT(report.totalTicks, 0u);
    EXPECT_GT(
        report.phaseBusy[static_cast<std::size_t>(Phase::Stat)], 0.0);
}

TEST(Integration, CambriconQBeatsTpuOnMidCnn)
{
    // A toy 16x16 network is dominated by fixed per-layer overheads
    // (QMOVE round trips), where the TPU can legitimately tie; the
    // paper's claim is about realistic layer sizes, so use a small
    // but non-trivial CNN.
    NetworkBuilder b("MidCNN", 32);
    b.inputImage(3, 64, 64);
    b.conv("conv1", 32, 3, 1, 1);
    b.conv("conv2", 64, 3, 2, 1);
    b.conv("conv3", 128, 3, 2, 1);
    b.fc("fc", 100, false);
    const WorkloadIR ir = b.build();

    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    arch::Accelerator acc(cfg);
    const auto cq = acc.run(generateProgram(ir, cfg, CodegenOptions{}));
    const auto tpu = baseline::simulateTpu(ir);
    EXPECT_LT(cq.totalTicks, tpu.totalTicks);
}

TEST(Integration, NdpImprovesWeightHeavyWorkload)
{
    // An FC-heavy tiny workload: NDP must cut WU time clearly.
    const WorkloadIR ir = buildTinyMlp(4);
    arch::Accelerator with(arch::CambriconQConfig::edge());
    arch::Accelerator without(arch::CambriconQConfig::edgeNoNdp());
    const auto r1 = with.run(generateProgram(
        ir, arch::CambriconQConfig::edge(), CodegenOptions{}));
    const auto r2 = without.run(generateProgram(
        ir, arch::CambriconQConfig::edgeNoNdp(), CodegenOptions{}));
    const auto wu = static_cast<std::size_t>(Phase::WU);
    EXPECT_LT(r1.phaseBusy[wu], r2.phaseBusy[wu]);
}

TEST(Integration, DeterministicSimulation)
{
    const WorkloadIR ir = buildTinyCnn();
    const arch::CambriconQConfig cfg = arch::CambriconQConfig::edge();
    const auto prog = generateProgram(ir, cfg, CodegenOptions{});
    const auto t1 = arch::Accelerator(cfg).run(prog).totalTicks;
    const auto t2 = arch::Accelerator(cfg).run(prog).totalTicks;
    EXPECT_EQ(t1, t2);
}

// ---------------------------------------------------------------- GPU

TEST(GpuModel, QuantizedSlowerThanFp32OnGpu)
{
    // The paper's Fig. 3 observation: quantized training is 1.09x to
    // 1.78x *slower* on a GPU.
    const WorkloadIR ir = buildTinyCnn(16);
    const auto gpu = baseline::GpuSpec::jetsonTx2();
    const auto fp32 = baseline::simulateGpu(ir, gpu, false);
    const auto quant = baseline::simulateGpu(ir, gpu, true);
    EXPECT_GT(quant.timeMs, fp32.timeMs);
}

TEST(GpuModel, BiggerGpuFaster)
{
    const WorkloadIR ir = buildTinyCnn(16);
    const auto tx2 =
        baseline::simulateGpu(ir, baseline::GpuSpec::jetsonTx2(), true);
    const auto v100 =
        baseline::simulateGpu(ir, baseline::GpuSpec::v100(), true);
    EXPECT_LT(v100.timeMs, tx2.timeMs);
}

TEST(GpuModel, EnergyPositiveAndProportional)
{
    const WorkloadIR ir = buildTinyCnn(16);
    const auto gpu = baseline::GpuSpec::jetsonTx2();
    const auto res = baseline::simulateGpu(ir, gpu, true);
    EXPECT_NEAR(res.energyMj, gpu.trainPowerW * res.timeMs, 1e-9);
}


// -------------------------------------------------------- IR structure

TEST(WorkloadStructure, ForwardTasksPrecedeBackward)
{
    const WorkloadIR ir = buildTinyCnn();
    bool seen_backward = false;
    for (const auto &task : ir.tasks) {
        Phase phase = Phase::FW;
        if (task.kind == Task::Kind::Gemm)
            phase = task.gemm.phase;
        else if (task.kind == Task::Kind::Stream)
            phase = task.stream.phase;
        else
            continue;
        if (phase != Phase::FW)
            seen_backward = true;
        else
            EXPECT_FALSE(seen_backward)
                << "forward task after backward began";
    }
}

TEST(WorkloadStructure, EveryGemmLayerGetsUpdate)
{
    const WorkloadIR ir = buildTinyCnn();
    std::set<std::string> fresh, updated;
    for (const auto &task : ir.tasks) {
        if (task.kind == Task::Kind::Gemm &&
            task.gemm.freshWeightElems > 0)
            fresh.insert(task.gemm.layer);
        if (task.kind == Task::Kind::Update)
            updated.insert(task.update.layer);
    }
    EXPECT_EQ(fresh, updated);
}

TEST(WorkloadStructure, WgGemmsMarkedFullPrecision)
{
    for (const auto &ir : {buildTinyCnn(), buildTinyMlp()}) {
        for (const auto &task : ir.tasks) {
            if (task.kind != Task::Kind::Gemm)
                continue;
            if (task.gemm.phase == Phase::WG) {
                EXPECT_TRUE(task.gemm.outFp32);
                EXPECT_TRUE(task.gemm.isWeightGradient);
            } else {
                EXPECT_FALSE(task.gemm.outFp32);
            }
        }
    }
}

TEST(WorkloadStructure, GradientsUseFourWayE2bqm)
{
    const WorkloadIR ir = buildTinyCnn();
    for (const auto &task : ir.tasks) {
        if (task.kind == Task::Kind::Gemm &&
            task.gemm.phase == Phase::NG) {
            EXPECT_EQ(task.gemm.waysOut, 4u);
        }
    }
}

TEST(WorkloadStructure, GoogLeNetInceptionBranchCount)
{
    // 9 inception modules x 6 convs + stem 3 convs + fc = 58 weighted
    // layers -> 58 update tasks.
    const WorkloadIR ir = buildGoogLeNet();
    std::size_t updates = 0;
    for (const auto &task : ir.tasks)
        updates += task.kind == Task::Kind::Update;
    EXPECT_EQ(updates, 9u * 6u + 3u + 1u);
}

TEST(WorkloadStructure, ResNetDownsampleConvsPresent)
{
    // conv1 + 16 block convs + 3 downsample 1x1 convs + fc = 21.
    const WorkloadIR ir = buildResNet18();
    std::size_t updates = 0;
    for (const auto &task : ir.tasks)
        updates += task.kind == Task::Kind::Update;
    EXPECT_EQ(updates, 21u);
}

TEST(WorkloadStructure, LstmStepsSerializedByStateTensors)
{
    const WorkloadIR ir = buildPtbLstm(4, 5);
    // Each forward step's A tensor is the previous step's C tensor.
    std::string prev;
    for (const auto &task : ir.tasks) {
        if (task.kind != Task::Kind::Gemm ||
            task.gemm.phase != Phase::FW ||
            task.gemm.layer != "lstm1")
            continue;
        if (!prev.empty()) {
            EXPECT_EQ(task.gemm.aTensor, prev);
        }
        prev = task.gemm.cTensor;
    }
}

TEST(WorkloadStructure, TransformerAttentionHeadsEmitted)
{
    const WorkloadIR ir = buildTransformerBase(2, 8);
    // Each encoder block emits 8 score GEMMs (one per head).
    std::size_t scores = 0;
    for (const auto &task : ir.tasks) {
        if (task.kind == Task::Kind::Gemm &&
            task.gemm.cTensor.find("enc0.scores") !=
                std::string::npos)
            ++scores;
    }
    EXPECT_EQ(scores, 8u);
}

TEST(WorkloadStructure, ConvRawElemsSmallerThanIm2col)
{
    // The raw-stream override must shrink conv A-operand footprints
    // versus the dense im2col expansion (k > C for 3x3 kernels).
    const WorkloadIR ir = buildTinyCnn();
    for (const auto &task : ir.tasks) {
        if (task.kind != Task::Kind::Gemm ||
            task.gemm.phase != Phase::FW ||
            task.gemm.aElemsTotal == 0)
            continue;
        EXPECT_LT(task.gemm.aElems(), task.gemm.m * task.gemm.k);
    }
}

TEST(WorkloadStructure, MacsInPhaseSumsToTotal)
{
    const WorkloadIR ir = buildAlexNet();
    std::uint64_t sum = 0;
    for (auto phase : {Phase::FW, Phase::NG, Phase::WG, Phase::WU,
                       Phase::Stat, Phase::Quant})
        sum += ir.macsInPhase(phase);
    EXPECT_EQ(sum, ir.totalMacs);
}

} // namespace
} // namespace cq::compiler
