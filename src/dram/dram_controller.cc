/**
 * @file
 * Implementation of the DRAM controller model.
 */

#include "dram/dram_controller.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace cq::dram {

DramConfig
DramConfig::lpddr4_2133()
{
    return DramConfig{};
}

DramConfig
DramConfig::scaled(unsigned factor)
{
    DramConfig cfg;
    CQ_ASSERT(factor >= 1);
    cfg.channels = factor;
    return cfg;
}

namespace {

/** log2 of @p value, panicking unless it is a power of two. */
unsigned
log2Exact(std::uint64_t value, const char *field)
{
    CQ_ASSERT_MSG(std::has_single_bit(value),
                  "DramConfig::%s = %llu is not a power of two", field,
                  static_cast<unsigned long long>(value));
    return static_cast<unsigned>(std::countr_zero(value));
}

} // namespace

DramController::DramController(DramConfig config)
    : config_(config), banks_(config.numBanks * config.channels),
      burstShift_(log2Exact(config.burstBytes, "burstBytes")),
      chanShift_(log2Exact(config.channels, "channels")),
      rowShift_(log2Exact(config.rowBytes, "rowBytes")),
      bankShift_(log2Exact(config.numBanks, "numBanks"))
{
    CQ_ASSERT(config_.rowBytes % config_.burstBytes == 0);
    CQ_ASSERT_MSG(config_.tBurst >= (config_.fractionalBurst ? 2u : 1u),
                  "DramConfig::tBurst = %llu leaves a burst without a "
                  "data tick",
                  static_cast<unsigned long long>(config_.tBurst));
    segmentMask_ =
        (config_.channels == 1 ? config_.rowBytes : config_.burstBytes) -
        1;
    const Tick ch = config_.channels;
    longBusTicks_ = std::max<Tick>(1, config_.tBurst / ch);
    shortBusTicks_ = config_.fractionalBurst
                         ? std::max<Tick>(1, (config_.tBurst - 1) / ch)
                         : longBusTicks_;
    nextRefresh_ = config_.tREFI;
}

void
DramController::applyRefreshUpTo(Tick now)
{
    if (!config_.refreshEnabled)
        return;
    while (nextRefresh_ <= now) {
        // All-bank refresh: rows close, banks stall for tRFC.
        for (auto &b : banks_) {
            b.rowOpen = false;
            b.readyAt = std::max(b.readyAt, nextRefresh_) +
                        config_.tRFC;
        }
        ++nRefreshes_;
        nextRefresh_ += config_.tREFI;
    }
}

void
DramController::checkRange(Addr addr, Bytes bytes) const
{
    const Bytes capacity =
        config_.capacityBytes * static_cast<Bytes>(config_.channels);
    CQ_ASSERT_MSG(addr < capacity && bytes <= capacity - addr,
                  "address range [0x%llx, +%llu) exceeds DRAM capacity "
                  "%llu B (%u channel(s) x %llu B)",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(bytes),
                  static_cast<unsigned long long>(capacity),
                  config_.channels,
                  static_cast<unsigned long long>(config_.capacityBytes));
}

void
DramController::mapAddress(Addr addr, std::size_t &bank,
                           std::uint64_t &row) const
{
    // Channel interleave at burst granularity (for scaled configs),
    // then Row : Bank : Column within the channel. Bank bits above the
    // column bits keep sequential streams inside one open row.
    const Addr burst = addr >> burstShift_;
    const std::size_t chan = burst & (config_.channels - 1);
    const Addr in_chan = (burst >> chanShift_) << burstShift_ |
                         (addr & (config_.burstBytes - 1));
    const std::uint64_t row_global = in_chan >> rowShift_;
    row = row_global >> bankShift_;
    bank = chan << bankShift_ | (row_global & (config_.numBanks - 1));
}

Tick
DramController::prepareRow(Tick earliest, std::size_t bank,
                           std::uint64_t row)
{
    BankState &b = banks_[bank];
    Tick t = std::max(earliest, b.readyAt);
    if (b.rowOpen && b.openRow == row) {
        ++nRowHits_;
        return t;
    }
    // Row miss: PRECHARGE (if open) then ACTIVATE.
    if (b.rowOpen) {
        // Enforce tRAS since the last ACTIVATE before precharging.
        t = std::max(t, b.lastActivate + config_.tRAS);
        t += config_.tRP;
        ++nPrecharges_;
    }
    ++nRowMisses_;
    ++nActivates_;
    b.lastActivate = t;
    t += config_.tRCD;
    b.rowOpen = true;
    b.openRow = row;
    return t;
}

Tick
DramController::busTicks(std::uint64_t n) const
{
    // Every 4th burst of the 4/4/4/3 pattern (average 3.75 ticks ->
    // 17.06 GB/s on 64 B) is the short one.
    const std::uint64_t short_bursts =
        config_.fractionalBurst ? (burstPhase_ + n) / 4 : 0;
    return n * longBusTicks_ -
           short_bursts * (longBusTicks_ - shortBusTicks_);
}

std::uint64_t
DramController::burstsSpanning(Tick ticks) const
{
    // Any four consecutive bursts hold one short burst, so whole
    // periods jump straight to the last four candidates.
    if (ticks == 0)
        return 1;
    std::uint64_t n = (ticks - 1) / busTicks(4) * 4;
    while (busTicks(n) < ticks)
        ++n;
    return n;
}

Tick
DramController::runBursts(Tick start, std::uint64_t n)
{
    const Tick last_start = start + busTicks(n - 1);
    const bool last_short =
        config_.fractionalBurst && (burstPhase_ + n - 1) % 4 == 3;
    busFreeAt_ = start + busTicks(n);
    if (config_.fractionalBurst)
        burstPhase_ = static_cast<unsigned>((burstPhase_ + n) % 4);
    return last_start + config_.tBurst - (last_short ? 1 : 0);
}

Tick
DramController::transfer(Tick earliest, Addr addr, Bytes bytes,
                         bool is_write)
{
    CQ_ASSERT_MSG(bytes > 0, "zero-byte %s at addr 0x%llx",
                  is_write ? "write" : "read",
                  static_cast<unsigned long long>(addr));
    checkRange(addr, bytes);
    applyRefreshUpTo(earliest);
    Tick done = earliest;
    const Addr end = addr + bytes;
    Addr cur = addr;
    std::uint64_t bursts = 0;
    while (cur < end) {
        if (config_.refreshEnabled && done >= nextRefresh_)
            applyRefreshUpTo(done);
        std::size_t bank;
        std::uint64_t row;
        mapAddress(cur, bank, row);
        // The first burst of the segment pays the row state; the rest
        // are row hits that start as soon as the previous burst frees
        // the bus and the bank. With multiple channels each channel
        // has its own bus; we model the aggregate as `channels` bursts
        // being able to overlap by crediting the shared-bus time
        // 1/channels per burst (busTicks).
        const Tick start =
            std::max(prepareRow(earliest, bank, row), busFreeAt_);
        const Addr seg_end = std::min(end, (cur | segmentMask_) + 1);
        std::uint64_t n =
            ((seg_end - 1) >> burstShift_) - (cur >> burstShift_) + 1;
        // A refresh falls between bursts: before burst j once burst
        // j - 1's data has ended (start + busTicks(j) + tCAS) at or
        // past nextRefresh_, which ends the segment there.
        const Tick first_data = start + config_.tCAS;
        if (config_.refreshEnabled &&
            first_data + busTicks(n - 1) >= nextRefresh_) {
            n = burstsSpanning(nextRefresh_ > first_data
                                   ? nextRefresh_ - first_data
                                   : 0);
        }
        const Tick data_end = runBursts(start, n);
        banks_[bank].readyAt = data_end;
        done = std::max(done, data_end + config_.tCAS);
        nRowHits_ += n - 1;
        ++nSegments_;
        bursts += n;

        const Addr next =
            std::min(seg_end, ((cur >> burstShift_) + n) << burstShift_);
        busBytes_ += next - cur;
        cur = next;
    }
    (is_write ? nWrites_ : nReads_) += bursts;
    return done;
}

Tick
DramController::ndpUpdate(Tick earliest, Addr addr,
                          std::size_t num_elements, Bytes element_bytes)
{
    CQ_ASSERT_MSG(num_elements > 0, "zero-element NDP update at 0x%llx",
                  static_cast<unsigned long long>(addr));
    CQ_ASSERT_MSG(element_bytes > 0 && element_bytes <= config_.rowBytes,
                  "NDP element size %llu outside (0, rowBytes=%llu]",
                  static_cast<unsigned long long>(element_bytes),
                  static_cast<unsigned long long>(config_.rowBytes));
    checkRange(addr, static_cast<Bytes>(num_elements) * element_bytes);
    applyRefreshUpTo(earliest);
    const std::size_t per_row =
        static_cast<std::size_t>(config_.rowBytes / element_bytes);
    Tick t = earliest;
    std::size_t remaining = num_elements;
    Addr cur = addr;

    while (remaining > 0) {
        if (config_.refreshEnabled && t >= nextRefresh_)
            applyRefreshUpTo(t);
        const std::size_t in_row = std::min(remaining, per_row);

        // Three successive ACTIVATEs open the rows holding w, m and v
        // (they live in distinct banks; the command bus serializes the
        // row commands).
        std::size_t bank;
        std::uint64_t row;
        mapAddress(cur, bank, row);
        Tick row_ready = 0;
        for (int r = 0; r < 3; ++r) {
            const std::size_t b = (bank + r) % banks_.size();
            // The m/v rows track the weight row index within their
            // banks; modeling them as the same row id in neighbour
            // banks preserves the timing behaviour.
            BankState &bs = banks_[b];
            Tick bt = std::max(t + static_cast<Tick>(r) * config_.tCmd,
                               bs.readyAt);
            if (bs.rowOpen) {
                bt = std::max(bt, bs.lastActivate + config_.tRAS);
                bt += config_.tRP;
                ++nPrecharges_;
            }
            ++nActivates_;
            bs.rowOpen = true;
            bs.openRow = row;
            bs.lastActivate = bt;
            bs.readyAt = bt + config_.tRCD;
            row_ready = std::max(row_ready, bt + config_.tRCD);
        }

        // Gradient WRITE bursts cross the bus; w/m/v do not. The NDPO
        // pipeline updates one element per tick once filled, which is
        // never the bottleneck against the bus bursts. The rows are
        // open, so the bursts go back to back.
        const Bytes grad_bytes =
            static_cast<Bytes>(in_row) * element_bytes;
        const std::uint64_t n =
            (grad_bytes + config_.burstBytes - 1) >> burstShift_;
        Tick data_done =
            runBursts(std::max(row_ready, busFreeAt_), n) +
            config_.tCAS;
        nWrites_ += n;
        ++nSegments_;
        busBytes_ += grad_bytes;

        // NDPO element updates + the trailing pipeline drain.
        nNdpElements_ += in_row;
        data_done += 4; // pipeline drain

        // Three PRECHARGEs write the updated rows back.
        for (int r = 0; r < 3; ++r) {
            const std::size_t b = (bank + r) % banks_.size();
            BankState &bs = banks_[b];
            const Tick pt =
                std::max({data_done + static_cast<Tick>(r) * config_.tCmd,
                          bs.lastActivate + config_.tRAS,
                          bs.readyAt});
            bs.rowOpen = false;
            bs.readyAt = pt + config_.tRP;
            ++nPrecharges_;
        }
        ++nNdpRowGroups_;

        t = data_done;
        cur += static_cast<Addr>(in_row) * element_bytes;
        remaining -= in_row;
    }
    return t;
}

PicoJoule
DramController::dynamicEnergy() const
{
    // Each cost is charged per command; one all-bank refresh command
    // goes to every channel. The NDPO energy covers the in-place
    // update of one element.
    return static_cast<double>(nActivates_) * config_.eActPre +
           static_cast<double>(nReads_) * config_.eReadBurst +
           static_cast<double>(nWrites_) * config_.eWriteBurst +
           static_cast<double>(nNdpElements_) * config_.eNdpPerElement +
           static_cast<double>(nRefreshes_) * config_.eRefresh *
               static_cast<double>(config_.channels);
}

PicoJoule
DramController::standbyEnergy(Tick total_ticks) const
{
    // mW * ns = pJ.
    return config_.standbyPowerMw * static_cast<double>(total_ticks) *
           static_cast<double>(config_.channels);
}

StatGroup
DramController::stats() const
{
    StatGroup out;
    out.counter("dram.activates") = static_cast<double>(nActivates_);
    out.counter("dram.precharges") = static_cast<double>(nPrecharges_);
    out.counter("dram.reads") = static_cast<double>(nReads_);
    out.counter("dram.writes") = static_cast<double>(nWrites_);
    out.counter("dram.rowHits") = static_cast<double>(nRowHits_);
    out.counter("dram.rowMisses") = static_cast<double>(nRowMisses_);
    out.counter("dram.busBytes") = static_cast<double>(busBytes_);
    out.counter("dram.ndpElements") =
        static_cast<double>(nNdpElements_);
    out.counter("dram.ndpRowGroups") =
        static_cast<double>(nNdpRowGroups_);
    out.counter("dram.refreshes") = static_cast<double>(nRefreshes_);
    out.counter("dram.segments") = static_cast<double>(nSegments_);
    return out;
}

void
DramController::reset()
{
    banks_.assign(banks_.size(), BankState{});
    busFreeAt_ = 0;
    busBytes_ = 0;
    burstPhase_ = 0;
    nActivates_ = nPrecharges_ = nReads_ = nWrites_ = 0;
    nRowHits_ = nRowMisses_ = nNdpElements_ = nNdpRowGroups_ = 0;
    nRefreshes_ = nSegments_ = 0;
    nextRefresh_ = config_.tREFI;
}

} // namespace cq::dram
