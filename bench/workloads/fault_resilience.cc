/**
 * @file
 * Fault-resilience sweep: final accuracy of a quantized (HQT)
 * training run vs DRAM bit-flip rate under two protection levels
 * (DESIGN.md §5):
 *
 *   unprotected   - faults land on bare FP32 masters
 *   ECC+ABFT      - in-situ SEC-DED over the masters with background
 *                   scrubbing, plus ABFT-checksummed GEMMs, plus the
 *                   guardrail + checkpoint rollback ladder underneath
 *
 * A second sweep targets the PE-array accumulators (compute faults
 * no memory ECC can see) with guardrails + ABFT. Every protected arm
 * checkpoints into its own fresh generation store. Quick mode runs
 * the smoke subset the CI resilience job greps (it still exercises
 * both correction tiers).
 */

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/logging.h"
#include "harness/workload.h"
#include "nn/datasets.h"
#include "nn/quant_trainer.h"
#include "sim/faults/fault_injector.h"
#include "workloads/all.h"

namespace cq::bench::workloads {

namespace {

enum class Arm
{
    Unprotected,
    EccAbft,
    GuardedComputeAbft, ///< accumulator faults, guardrails + ABFT
};

struct SweepPoint
{
    double accuracyPct = 0.0;
    std::size_t rollbacks = 0;
    bool diverged = false;
    StatGroup stats;
};

SweepPoint
runArm(double rate, Arm arm, int steps, const std::string &ckptDir)
{
    nn::SpiralDataset data(2, 0.1, 17);
    nn::Network net = nn::makeSpiralMlp(18);

    nn::QuantTrainerConfig cfg;
    cfg.algorithm = quant::AlgorithmConfig::zhang2020Hqt(64);
    cfg.optimizer.kind = nn::OptimizerKind::Adam;
    cfg.optimizer.lr = 5e-3;
    cfg.resilience.enabled = arm != Arm::Unprotected;
    cfg.resilience.checkpointDir =
        arm != Arm::Unprotected ? ckptDir : "";
    cfg.resilience.checkpointInterval = 10;
    if (arm == Arm::EccAbft) {
        cfg.resilience.ecc.enabled = true;
        cfg.resilience.ecc.scrubWordsPerStep = 16;
        cfg.resilience.abft.enabled = true;
    }
    if (arm == Arm::GuardedComputeAbft)
        cfg.resilience.abft.enabled = true;
    nn::QuantTrainer trainer(net, cfg);

    sim::FaultConfig fcfg;
    fcfg.seed = 0xBEEF;
    fcfg.bitFlipsPerMbit = rate;
    fcfg.burstLength = 1;
    const bool computeArm = arm == Arm::GuardedComputeAbft;
    fcfg.targetMasterWeights = !computeArm;
    fcfg.targetAccumulators = computeArm;
    sim::FaultInjector inj(fcfg);
    if (rate > 0.0)
        trainer.setFaultInjector(&inj);

    SweepPoint p;
    for (int i = 0; i < steps; ++i) {
        const auto b = data.sample(64);
        const double loss =
            trainer.stepClassification(b.inputs, b.labels);
        if (!std::isfinite(loss))
            p.diverged = true;
    }
    const auto eval = data.evalSet(256);
    p.accuracyPct =
        100.0 * trainer.evalAccuracy(eval.inputs, eval.labels);
    p.rollbacks = trainer.rollbackCount();
    p.stats = trainer.resilienceStats();
    if (!std::isfinite(p.accuracyPct))
        p.diverged = true;
    return p;
}

WorkloadResult
run(const WorkloadContext &ctx)
{
    // The sweep is cheap (an MLP on 2-D points); quick mode trims the
    // rate grid but keeps full training length so accuracy floors
    // (ACC-01) measure converged runs in CI too.
    const int steps = 200;
    const std::vector<double> rates =
        ctx.quick ? std::vector<double>{100.0}
                  : std::vector<double>{100.0, 1000.0, 4000.0};
    const std::vector<double> accRates =
        ctx.quick ? std::vector<double>{10.0}
                  : std::vector<double>{10.0, 50.0};
    // One private directory per run; each protected arm gets a fresh
    // store under it, so a rollback never restores another arm's (or
    // another concurrent run's) weights.
    std::string root = (std::filesystem::temp_directory_path() /
                        "cq_bench_fault_resilience.XXXXXX")
                           .string();
    if (::mkdtemp(root.data()) == nullptr)
        panic("cannot create checkpoint directory %s", root.c_str());
    int stores = 0;
    const auto freshStore = [&] {
        return root + "/arm" + std::to_string(stores++);
    };

    WorkloadResult out;
    for (const double rate : rates) {
        const std::string tag = std::to_string(
            static_cast<long long>(rate));
        const SweepPoint un = runArm(rate, Arm::Unprotected, steps, "");
        const SweepPoint ea =
            runArm(rate, Arm::EccAbft, steps, freshStore());
        out.set("acc_unprotected_" + tag,
                un.diverged ? 0.0 : un.accuracyPct, "%");
        out.set("acc_ecc_abft_" + tag,
                ea.diverged ? 0.0 : ea.accuracyPct, "%");
        out.set("rollbacks_ecc_abft_" + tag,
                static_cast<double>(ea.rollbacks));
        if (rate == rates.front()) {
            // The counters the CI resilience job greps to prove both
            // in-situ correction tiers engaged.
            out.set("ecc_corrected", ea.stats.get("ecc.corrected"));
            out.set("ecc_uncorrectable",
                    ea.stats.get("ecc.uncorrectable"));
            out.set("ecc_scanned_words",
                    ea.stats.get("ecc.scannedWords"));
            out.set("ecc_scrubbed_words",
                    ea.stats.get("ecc.scrubbedWords"));
        }
    }

    for (const double rate : accRates) {
        const std::string tag = std::to_string(
            static_cast<long long>(rate));
        const SweepPoint ga = runArm(rate, Arm::GuardedComputeAbft,
                                     steps, freshStore());
        out.set("acc_compute_abft_" + tag,
                ga.diverged ? 0.0 : ga.accuracyPct, "%");
        if (rate == accRates.front()) {
            out.set("abft_gemms", ga.stats.get("abft.gemms"));
            out.set("abft_corrected",
                    ga.stats.get("abft.corrected"));
            out.set("abft_escalations",
                    ga.stats.get("abft.escalations"));
        }
    }
    std::filesystem::remove_all(root);
    out.notes = "faults on FP32 masters (post-encode for the ECC arm) "
                "and on PE accumulators; burst length 1";
    return out;
}

} // namespace

void
registerFaultResilience()
{
    Registry::instance().add(
        {"fault_resilience", "resilience",
         "accuracy vs bit-flip rate under rollback / ECC+ABFT "
         "protection",
         "supplementary to Cambricon-Q, ISCA'21 (DESIGN.md §5)",
         run});
}

} // namespace cq::bench::workloads
