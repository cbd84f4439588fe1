/**
 * @file
 * Implementation of the seeded kill-point planner.
 */

#include "sim/faults/kill_schedule.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"

namespace cq::sim {

std::vector<std::string>
planKillPoints(const KillScheduleConfig &config)
{
    CQ_ASSERT_MSG(config.kills >= 1, "kill schedule needs >= 1 kill");
    CQ_ASSERT_MSG(config.maxStep >= 2,
                  "kill schedule needs maxStep >= 2 so a resumed run "
                  "still has steps to replay");
    CQ_ASSERT_MSG(config.bodyBytes > 0 && config.manifestBytes > 0,
                  "kill schedule needs both byte-offset bounds");
    Rng rng(config.seed);
    const std::uint64_t stepSpan = config.maxStep - 1;

    // How many mid-write kills: a quarter of the schedule (rounded),
    // but at least one per write stream whenever there is room.
    const std::size_t midWrites = std::clamp<std::size_t>(
        (config.kills + 2) / 4, std::min<std::size_t>(2, config.kills),
        config.kills);

    // Spread the mid-write kills over the schedule with a fixed
    // stride instead of drawing positions: every index set is then a
    // pure function of the kill count, and the Rng stream is spent
    // only on steps/offsets.
    const std::size_t stride = config.kills / midWrites;
    std::vector<std::string> specs;
    specs.reserve(config.kills);
    for (std::size_t i = 0; i < config.kills; ++i) {
        const std::uint64_t step = 1 + rng.below(stepSpan);
        std::string spec;
        if (i % stride == 0 && i / stride < midWrites) {
            const bool body = (i / stride) % 2 == 0;
            const std::uint64_t bound =
                body ? config.bodyBytes : config.manifestBytes;
            spec = body ? "ckpt.body.write" : "ckpt.manifest.write";
            spec += "=kill,after_bytes=" +
                    std::to_string(rng.below(bound));
        } else {
            spec = "train.step=kill,after=" + std::to_string(step - 1);
        }
        specs.push_back(std::move(spec));
    }
    return specs;
}

} // namespace cq::sim
