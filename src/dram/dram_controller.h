/**
 * @file
 * Command-level DRAM controller model.
 *
 * A transfer is scheduled one row segment at a time: the run of bursts
 * that lands in one (bank, row) before the next refresh is due. On a
 * single channel that is the rest of the open row; with burst-granular
 * channel interleave each burst is its own segment. The first burst of
 * a segment is scheduled against the bank's row state (ACTIVATE /
 * PRECHARGE timing) and the data bus; the rest are row hits sent
 * back to back, so the whole segment's bus time, bank state and
 * counters follow in closed form. The timing equals scheduling every
 * burst on its own, tick for tick. The model is transaction-driven:
 * callers present transfers in nondecreasing simulated time (the
 * accelerator's executor guarantees this) and receive the completion
 * tick. Row-hit/miss behaviour, bandwidth saturation and per-command
 * energy are all tracked.
 *
 * The controller also implements the NDP engine's row protocol for
 * in-place weight update (Sec. IV-B3 of the paper): three ACTIVATEs
 * open the w/m/v rows, WRITE commands stream gradients over the bus,
 * the NDPO updates the row buffers locally, and three PRECHARGEs
 * close the rows -- w/m/v themselves never cross the bus.
 */

#ifndef CQ_DRAM_DRAM_CONTROLLER_H
#define CQ_DRAM_DRAM_CONTROLLER_H

#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "dram/dram_config.h"

namespace cq::dram {

/** Per-bank row-buffer state. */
struct BankState
{
    bool rowOpen = false;
    std::uint64_t openRow = 0;
    /** Earliest tick the bank can accept a column command. */
    Tick readyAt = 0;
    /** Tick of the last ACTIVATE (for tRAS enforcement). */
    Tick lastActivate = 0;
};

/**
 * One memory channel plus its controller.
 */
class DramController
{
  public:
    explicit DramController(DramConfig config);

    const DramConfig &config() const { return config_; }

    /**
     * Stream @p bytes starting at @p addr through the channel, not
     * starting before @p earliest. @p is_write selects the direction.
     * Returns the completion tick of the last burst.
     */
    Tick transfer(Tick earliest, Addr addr, Bytes bytes, bool is_write);

    /**
     * NDP in-place update of @p num_elements consecutive
     * @p element_bytes-sized weights starting at @p addr. Per row
     * group: 3 ACT + gradient WRITE bursts + NDPO pipeline + 3 PRE.
     * Only the gradients cross the bus.
     */
    Tick ndpUpdate(Tick earliest, Addr addr, std::size_t num_elements,
                   Bytes element_bytes);

    /** Earliest tick a new transfer could begin (bus free). */
    Tick busFreeAt() const { return busFreeAt_; }

    /** Total bytes moved over the data bus so far. */
    Bytes busBytes() const { return busBytes_; }

    /** Activity counters (acts, reads, writes, rowHits, segments, ...),
     *  materialized from the internal fast counters. */
    StatGroup stats() const;

    /** Dynamic energy so far (pJ): each command count times its
     *  per-command cost. */
    PicoJoule dynamicEnergy() const;

    /** Standby energy for a run of @p total_ticks (pJ). */
    PicoJoule standbyEnergy(Tick total_ticks) const;

    /** Reset all state (row buffers, bus, stats). */
    void reset();

  private:
    /** Panic if [addr, addr+bytes) exceeds the addressable capacity. */
    void checkRange(Addr addr, Bytes bytes) const;

    /** Map an address to (bank, row) under the Ro:Ba:Co scheme. */
    void mapAddress(Addr addr, std::size_t &bank,
                    std::uint64_t &row) const;

    /**
     * Issue any all-bank refreshes due at or before @p now: every
     * tREFI, all banks close their rows and stall for tRFC.
     */
    void applyRefreshUpTo(Tick now);

    /** Open @p row in @p bank if needed; returns column-ready tick. */
    Tick prepareRow(Tick earliest, std::size_t bank, std::uint64_t row);

    /** Data-bus ticks of @p n back-to-back bursts from the current
     *  burst phase. */
    Tick busTicks(std::uint64_t n) const;

    /** Smallest n >= 1 with busTicks(n) >= @p ticks. */
    std::uint64_t burstsSpanning(Tick ticks) const;

    /**
     * Send @p n bursts back to back on the data bus, the first at
     * @p start; advances the bus and the burst phase. Returns the last
     * burst's start plus its duration: when its bank can take the next
     * column command. Its data completes tCAS later.
     */
    Tick runBursts(Tick start, std::uint64_t n);

    DramConfig config_;
    std::vector<BankState> banks_;
    Tick busFreeAt_ = 0;
    Bytes busBytes_ = 0;
    /** Position in the 4/4/4/3 fractional-burst pattern. */
    unsigned burstPhase_ = 0;

    /** @name Address-map shifts and masks (see mapAddress) */
    /** @{ */
    unsigned burstShift_ = 0;
    unsigned chanShift_ = 0;
    unsigned rowShift_ = 0;
    unsigned bankShift_ = 0;
    /** Bytes of one row segment minus one: the row on one channel,
     *  the burst when bursts interleave across channels. */
    Addr segmentMask_ = 0;
    /** @} */

    /** Bus ticks of a full-length and of a fractional burst. */
    Tick longBusTicks_ = 0;
    Tick shortBusTicks_ = 0;

    /** @name Fast activity counters (hot path: no map lookups) */
    /** @{ */
    std::uint64_t nActivates_ = 0;
    std::uint64_t nPrecharges_ = 0;
    std::uint64_t nReads_ = 0;
    std::uint64_t nWrites_ = 0;
    std::uint64_t nRowHits_ = 0;
    std::uint64_t nRowMisses_ = 0;
    std::uint64_t nNdpElements_ = 0;
    std::uint64_t nNdpRowGroups_ = 0;
    std::uint64_t nRefreshes_ = 0;
    /** Row segments scheduled: transfer loop iterations plus NDP
     *  gradient-write runs. */
    std::uint64_t nSegments_ = 0;
    /** @} */

    /** Next scheduled all-bank refresh. */
    Tick nextRefresh_ = 0;
};

} // namespace cq::dram

#endif // CQ_DRAM_DRAM_CONTROLLER_H
