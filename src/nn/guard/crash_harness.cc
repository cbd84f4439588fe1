/**
 * @file
 * Implementation of the kill–restart training leg.
 */

#include "nn/guard/crash_harness.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/crc32.h"
#include "common/failpoint.h"
#include "common/fileutil.h"
#include "common/logging.h"
#include "nn/datasets.h"
#include "nn/guard/ckpt_store.h"
#include "nn/quant_trainer.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "sim/faults/fault_injector.h"

namespace cq::nn::guard {

CrashHarnessResult
runCrashHarness(const CrashHarnessConfig &config)
{
    CrashHarnessResult result;

    SpiralDataset data(2, 0.1, config.seed);
    Network net = makeSpiralMlp(config.seed + 1);

    QuantTrainerConfig cfg;
    cfg.algorithm = quant::AlgorithmConfig::zhang2020Hqt(64);
    cfg.optimizer.kind = OptimizerKind::Adam;
    cfg.optimizer.lr = 5e-3;
    cfg.resilience.enabled = true;
    cfg.resilience.ecc.enabled = config.ecc;
    cfg.resilience.abft.enabled = config.abft;
    cfg.resilience.checkpointDir = config.dir;
    cfg.resilience.checkpointKeep = config.ckptKeep;
    cfg.resilience.checkpointInterval =
        static_cast<std::size_t>(config.ckptEvery);
    cfg.resilience.asyncCheckpoint = config.asyncCheckpoint;
    cfg.resilience.handleSignals = config.handleSignals;
    cfg.resilience.cancel = config.cancel;
    cfg.resilience.dataRng = &data.rng();

    QuantTrainer trainer(net, cfg);

    // Observability wiring. Everything here is observational output:
    // the trained weights are bitwise identical with or without it.
    if (!config.traceOut.empty())
        obs::TraceSession::instance().setEnabled(true);
    std::unique_ptr<obs::JsonlTelemetrySink> telemetry;
    if (!config.telemetryOut.empty()) {
        telemetry = std::make_unique<obs::JsonlTelemetrySink>(
            config.telemetryOut);
        trainer.setTelemetrySink(telemetry.get());
    }
    std::unique_ptr<sim::FaultInjector> injector;
    if (config.faultFlipsPerMbit > 0.0) {
        sim::FaultConfig fcfg;
        fcfg.seed = config.seed + 0xFA17;
        fcfg.bitFlipsPerMbit = config.faultFlipsPerMbit;
        fcfg.targetMasterWeights = true;
        fcfg.targetGradients = true;
        fcfg.targetAccumulators = true;
        injector = std::make_unique<sim::FaultInjector>(fcfg);
        trainer.setFaultInjector(injector.get());
    }
    const auto writeMetrics = [&] {
        const StatGroup rs = trainer.resilienceStats();
        obs::MetricRegistry::instance().writeProm(config.metricsOut,
                                                  {&rs});
    };

    if (config.resume) {
        const auto ro = trainer.resumeFrom(
            config.resumeDir.empty() ? config.dir
                                     : config.resumeDir);
        result.resumed = ro.resumed;
        result.resumedGeneration = ro.generation;
        result.resumedStep = ro.step;
        result.skippedCorrupt = ro.skippedCorrupt;
    }

    while (trainer.stepCount() < config.steps) {
        const auto batch = data.sample(config.batchSize);
        result.finalLoss =
            trainer.stepClassification(batch.inputs, batch.labels);
        ++result.stepsRun;
        if (!config.metricsOut.empty() && config.metricsEvery > 0 &&
            trainer.stepCount() % config.metricsEvery == 0) {
            writeMetrics();
        }
        // Step boundary: the step's update and its checkpoint submit
        // are done. A planned kill (train.step=kill,after=K-1) dies
        // here, before step K+1 runs.
        CQ_FAILPOINT("train.step");
        if (trainer.stopRequested()) {
            result.stopRequested = true;
            result.cancelled = trainer.cancelObserved();
            break;
        }
    }
    trainer.drainCheckpoints();
    trainer.setTelemetrySink(nullptr);

    if (!config.metricsOut.empty())
        writeMetrics();
    if (!config.traceOut.empty())
        obs::TraceSession::instance().writeChromeTrace(config.traceOut);

    // Dump the masters exactly as they sit in memory. commitStep
    // leaves params' values equal to the masters, so the network is
    // the source of truth here; bytes (not floats) because the
    // comparison must be bitwise.
    std::uint32_t crc = 0;
    std::FILE *out = nullptr;
    if (!config.mastersOut.empty()) {
        out = std::fopen(config.mastersOut.c_str(), "wb");
        CQ_ASSERT_MSG(out != nullptr, "cannot open masters dump %s",
                      config.mastersOut.c_str());
    }
    for (Param *p : net.params()) {
        const std::size_t bytes = p->value.numel() * sizeof(float);
        crc = crc32(p->value.data(), bytes, crc);
        if (out != nullptr) {
            const std::size_t n =
                std::fwrite(p->value.data(), 1, bytes, out);
            CQ_ASSERT_MSG(n == bytes, "short write to %s",
                          config.mastersOut.c_str());
        }
    }
    if (out != nullptr)
        std::fclose(out);
    result.mastersCrc = crc;
    return result;
}

sim::KillScheduleConfig
killScheduleFor(const CrashHarnessConfig &reference)
{
    CQ_ASSERT_MSG(reference.ckptEvery > 0 && !reference.dir.empty(),
                  "kill legs need a checkpointing reference leg");
    // A synchronous-commit leg commits at least steps/ckptEvery
    // snapshots of one body size, each followed by a manifest rewrite
    // no shorter than a single step-1 entry's listing.
    const std::uint64_t commits = reference.steps / reference.ckptEvery;
    CQ_ASSERT_MSG(commits > 0, "the reference leg never checkpointed");
    sim::KillScheduleConfig schedule;
    schedule.maxStep = reference.steps;
    ManifestEntry single;
    single.gen = 1;
    single.file = CheckpointStore::generationFileName(1);
    single.step = 1;
    schedule.manifestBytes =
        commits * CheckpointStore::manifestText({single}).size();
    for (const std::string &name : listDir(reference.dir)) {
        if (CheckpointStore::parseGenerationFileName(name) != 0) {
            schedule.bodyBytes =
                commits * static_cast<std::uint64_t>(std::max(
                              fileSize(reference.dir + "/" + name), 0LL));
            break;
        }
    }
    CQ_ASSERT_MSG(schedule.bodyBytes > 0,
                  "reference leg left no checkpoint in %s",
                  reference.dir.c_str());
    return schedule;
}

CrashHarnessConfig
killLegFor(const CrashHarnessConfig &reference, const std::string &spec,
           const std::string &dir)
{
    CrashHarnessConfig leg = reference;
    leg.dir = dir;
    leg.mastersOut.clear();
    if (spec.rfind("train.step=", 0) != 0)
        leg.asyncCheckpoint = false;
    return leg;
}

} // namespace cq::nn::guard
