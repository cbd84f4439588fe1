/**
 * @file
 * Seeded kill-point planner for the kill–restart check.
 *
 * The check (`cq_faultsweep --mode kill-resume`,
 * tests/test_crash_resume.cc) proves crash consistency by SIGKILLing
 * a training child at chosen points and asserting the resumed run is
 * bitwise identical to an uninterrupted one. For the proof to cover
 * the interesting failure windows the kill points must (a) be
 * deterministic for a seed, so a failure reproduces, and (b) include
 * kills *inside* a checkpoint write — of the snapshot body and of the
 * generation manifest — not just between steps. planKillPoints()
 * draws all three kinds from one Rng stream and returns each as a
 * failpoint spec (common/failpoint.h) that the kill leg arms.
 */

#ifndef CQ_SIM_FAULTS_KILL_SCHEDULE_H
#define CQ_SIM_FAULTS_KILL_SCHEDULE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace cq::sim {

/** Schedule shape. */
struct KillScheduleConfig
{
    std::uint64_t seed = 1;
    /** Kill points to plan (>= 1). */
    std::size_t kills = 20;
    /** Steps in the full run; kill steps land in [1, maxStep - 1] so
     *  a resumed child always has work left to do. */
    std::uint64_t maxStep = 60;
    /** @name Byte-offset bounds, one per checkpoint write stream
     *  Offsets are drawn below these (both > 0). Set them to bytes
     *  every kill leg is sure to write to the stream, so each
     *  mid-write kill fires (nn::guard::killScheduleFor()). */
    /** @{ */
    std::uint64_t bodyBytes = 0;
    std::uint64_t manifestBytes = 0;
    /** @} */
};

/**
 * Deterministic schedule: same config -> same specs. A quarter of the
 * kills (at least one per write stream when kills >= 2) land inside a
 * write. Each entry is one of
 *
 *   train.step=kill,after=K-1               die once step K committed
 *   ckpt.body.write=kill,after_bytes=N      die inside a body write
 *   ckpt.manifest.write=kill,after_bytes=M  die inside a manifest write
 *
 * Mid-write kills are spread across the schedule (not bunched at the
 * front) and alternate between the body and manifest streams, body
 * first.
 */
std::vector<std::string> planKillPoints(const KillScheduleConfig &config);

} // namespace cq::sim

#endif // CQ_SIM_FAULTS_KILL_SCHEDULE_H
